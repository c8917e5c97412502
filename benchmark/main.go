// Command benchmark is the repository's one performance harness: it boots
// the DMW serving stack in-process (loopback listeners, temp data dirs),
// drives one named workload from a seeded, fully pre-generated plan, checks
// every result, and prints the contracted metrics as one JSON line.
//
//	bash benchmark/run.sh --workload fleet-submit --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// With --trace 0 a run measures one untraced window and reports the
// end-to-end metrics; with --trace 1 it measures an untraced window, a
// traced one, and the layer replay, and reports the per-layer metrics. See
// README.md for the catalogue.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "plan seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "measured time (cut into 0.5 s slices; a traced run splits it 2:2:1 between the untraced window, the traced window and the layer replay)")
		trace   = flag.Int("trace", 0, "0: untraced window, end-to-end metrics; 1: traced pass and layer replay, per-layer metrics")
		outDir  = flag.String("out", "benchmark/out", "directory for <workload>.trace.jsonl and <workload>.report.json")
		report  = flag.String("report", "", "also append the full report (one JSON line) to this file, for -compare")
		compare = flag.Bool("compare", false, "compare two report files given as arguments: benchmark -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "dmwbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || flag.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		return 2
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	tmpRoot, err := os.MkdirTemp("", "dmwbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmwbench:", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)

	// The hard deadline: a run that stalls dumps its goroutines and exits
	// non-zero instead of hanging whatever pipeline called it.
	deadline := min(60*time.Second+time.Duration(3**seconds*float64(time.Second)), 170*time.Second)
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "dmwbench: %s still running after %s; goroutines:\n", w.Name, deadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		_ = os.RemoveAll(tmpRoot)
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, tmpRoot: tmpRoot, procs: procs}
	start := time.Now()
	res, err := runWorkload(cfg)
	if res == nil {
		fmt.Fprintln(os.Stderr, "dmwbench:", err)
		return 1
	}
	doc := buildReport(cfg, res, err, time.Since(start))
	doc.printHuman(os.Stderr)
	if werr := doc.save(*report); werr != nil {
		fmt.Fprintln(os.Stderr, "dmwbench: saving report:", werr)
		return 1
	}
	// The contract: the last line of stdout is one JSON object with exactly
	// these keys, each metric carrying exactly its value and unit.
	type contractMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, map[string]contractMetric{}}
	for k, s := range doc.Metrics {
		line.Metrics[k] = contractMetric{s.Value, s.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmwbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !doc.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// reportDoc is the full record of one run: the contracted metrics with
// their slice spreads, the oracle's sample counts, and where it ran.
type reportDoc struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Error     string           `json:"error,omitempty"`
	Oracle    map[string]int64 `json:"oracle"`
	Metrics   map[string]stat  `json:"metrics"`
	// HostProbeMS is the host-speed probe per slice; metrics are reported
	// at probeRefMS (see probe.go).
	HostProbeMS stat        `json:"host_probe_ms"`
	Fingerprint fingerprint `json:"fingerprint"`
	ElapsedS    float64     `json:"elapsed_s"`
	path        string
}

func buildReport(cfg runConfig, res *result, runErr error, elapsed time.Duration) *reportDoc {
	doc := &reportDoc{
		Workload: cfg.w.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		Attempted: res.attempted, Failed: res.failed, Error: res.firstErr,
		Oracle: res.oracle, Metrics: res.metrics, HostProbeMS: res.hostProbe,
		Fingerprint: readFingerprint(cfg.procs), ElapsedS: elapsed.Seconds(),
		path: filepath.Join(cfg.outDir, cfg.w.Name+".report.json"),
	}
	if cfg.trace {
		doc.Trace = 1
	}
	if runErr != nil {
		doc.Error = strings.TrimSpace(doc.Error + " " + runErr.Error())
	}
	doc.Correct = runErr == nil && res.failed == 0 && res.attempted > 0
	return doc
}

// save writes the report beside the traces and, when asked, appends it to
// the file a later -compare reads.
func (d *reportDoc) save(appendTo string) error {
	line, err := json.Marshal(d)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if err := os.MkdirAll(filepath.Dir(d.path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(d.path, line, 0o644); err != nil {
		return err
	}
	if appendTo == "" {
		return nil
	}
	f, err := os.OpenFile(appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d *reportDoc) printHuman(w *os.File) {
	fp := d.Fingerprint
	fmt.Fprintf(w, "dmwbench: %s seed=%d seconds=%g trace=%d  P=%d GOMAXPROCS=%d nproc=%d %s %s/%s %s\n",
		d.Workload, d.Seed, d.Seconds, d.Trace, fp.Callers, fp.GOMAXPROCS, fp.NumCPU, fp.GoVersion, fp.GOOS, fp.GOARCH, fp.CPUModel)
	for _, k := range sortedKeys(d.Metrics) {
		s := d.Metrics[k]
		if len(s.Slices) > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s slice median %.4f IQR %.4f, host-speed slope %+.2f (n=%d)\n", k, s.Value, s.Unit, s.Median, s.IQR, s.Slope, s.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, s.Value, s.Unit)
		}
	}
	fmt.Fprintf(w, "  host probe: median %.3f ms, IQR %.3f ms over the slices; time-based metrics are reported at %.2f ms\n", d.HostProbeMS.Median, d.HostProbeMS.IQR, probeRefMS)
	fmt.Fprintf(w, "  ops attempted %d, failed %d; oracle: %d jobs checked done+matches_centralized, %d re-derived with MinWork, %d transcripts audited, %d in the exact-count set; %d SSE streams reopened after a lost terminal event\n",
		d.Attempted, d.Failed, d.Oracle["jobs_checked"], d.Oracle["rederived"], d.Oracle["audited"], d.Oracle["exact_jobs"], d.Oracle["sse_reconnects"])
	if d.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", d.Error)
	}
	fmt.Fprintf(w, "  elapsed %.1fs\n", d.ElapsedS)
}

// cpuModel is the first "model name" of /proc/cpuinfo, best effort.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
