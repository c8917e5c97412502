// Command dmwtrace renders a dmwd protocol trace — the JSONL span
// stream served by GET /v1/jobs/{id}/trace — as a text waterfall: one
// line per span, indented by parentage, with a proportional bar over
// the trace's time range.
//
// Usage:
//
//	dmwtrace [-width 64] [-slowest N] [trace.jsonl]
//
// With no file argument, spans are read from stdin, so the natural
// workflow pipes the daemon (or the gateway fronting it) straight in:
//
//	curl -s localhost:7700/v1/jobs/<id>/trace | dmwtrace
//
// -slowest N keeps only the N slowest spans (plus their descendants
// and ancestor chains) — the view to reach for when chasing a /metrics
// exemplar into a large trace: the waterfall shows where the time went
// without the hundreds of fast spans around it.
//
// Submit the job with "trace": true to have dmwd record spans; see
// docs/OBSERVABILITY.md for the span model (job root, per-task auction
// spans, per-phase children) and how to read the waterfall.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dmw/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dmwtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmwtrace", flag.ExitOnError)
	fs.SetOutput(stderr)
	width := fs.Int("width", 64, "waterfall bar width in characters")
	slowest := fs.Int("slowest", 0, "show only the N slowest subtrees (0 = all spans)")
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: dmwtrace [-width n] [-slowest n] [trace.jsonl]\nreads span JSONL (GET /v1/jobs/{id}/trace) from the file or stdin\n")
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag

	in := stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		fs.Usage()
		return fmt.Errorf("at most one trace file, got %d args", fs.NArg())
	}

	spans, err := obs.ReadJSONL(in)
	if err != nil {
		return fmt.Errorf("reading spans: %w", err)
	}
	if *slowest > 0 {
		spans = obs.SlowestSubtrees(spans, *slowest)
	}
	return obs.Waterfall(stdout, spans, *width)
}
