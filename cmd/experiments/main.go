// Command experiments runs the reproduction suite: every table and figure
// artifact of the paper plus one empirical validation per theorem (see
// DESIGN.md's experiment index). EXPERIMENTS.md records the output of a
// full run.
//
// Usage:
//
//	experiments [-run id[,id...]] [-quick] [-seed s]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dmw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		only   = fs.String("run", "", "comma-separated experiment ids (default: all)")
		quick  = fs.Bool("quick", false, "reduced sweeps and trial counts")
		seed   = fs.Int64("seed", 12345, "random seed")
		csvDir = fs.String("csv", "", "also write every table as CSV into this directory")
	)
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	cfg := dmw.ExperimentConfig{Quick: *quick, Seed: *seed}
	ids := dmw.ExperimentIDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}

	failures := 0
	for _, id := range ids {
		rep, err := dmw.RunExperiment(strings.TrimSpace(id), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		if *csvDir != "" {
			for ti, tab := range rep.Tables {
				name := filepath.Join(*csvDir, fmt.Sprintf("%s-%d.csv", rep.ID, ti))
				f, err := os.Create(name)
				if err != nil {
					return err
				}
				if err := tab.CSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		if !rep.Pass {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed their verdict", failures)
	}
	fmt.Fprintf(stdout, "all %d experiments passed\n", len(ids))
	return nil
}
