// Command dmwload is an open-loop load generator for dmwd daemons and
// dmwgw fleets, built to measure tail latency without coordinated
// omission.
//
// Closed-loop generators (a pool of workers, each issuing the next
// request when the previous one returns) silently stop sending while
// the server is slow — exactly the moments a tail-latency measurement
// exists to capture — so their p99 understates reality, sometimes by
// orders of magnitude. dmwload instead fixes the arrival schedule up
// front: arrival i is due at start + i/rate regardless of how the
// server is doing, and every latency is measured from that INTENDED
// send time, so time an op spends waiting behind a stalled fleet counts
// against the fleet, not the clock. See docs/PERFORMANCE.md.
//
// Traffic is mixed the way the fleet sees it in production: plain
// single submits, batch submits, traced submits (span capture on), and
// submits observed through the SSE event stream, spread across
// synthetic tenants. Client-side latencies land in the same HDR
// histogram tier the servers use, so the report's p50/p99/p999 carry
// the same ~5% relative-error bound as the fleet's own exposition.
//
// Usage:
//
//	dmwload -url http://gw:7800 -rate 200 -duration 30s [-slo 'p99<250ms@30d']
//	dmwload -fleet 2 -rate 200 -duration 10s -out load.json
//
// With -fleet N (and no -url), dmwload boots N in-process dmwd replicas
// behind an in-process dmwgw on loopback HTTP and drives that — one
// command measures a real 2-replica fleet. (The gated benchmark is
// `bash benchmark/run.sh`; dmwload is the operator's tool.)
//
// The report is a generated_at/results envelope plus a "load" section:
// quantiles, per-class breakdowns, SLO verdicts computed over the
// measured distribution, the fleet's own /healthz verdicts, the worst
// requests by ID, and the tail exemplars chased from the fleet's
// /metrics back to fetchable /v1/jobs/{id}/trace spans.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmw/internal/slo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dmwload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		url       = flag.String("url", "", "target base URL (a dmwgw or a single dmwd); empty with -fleet boots an in-process fleet")
		fleetN    = flag.Int("fleet", 0, "boot this many in-process dmwd replicas behind an in-process dmwgw (ignored when -url is set)")
		rate      = flag.Float64("rate", 200, "target arrival rate, ops/second (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "arrival window; the run ends when every scheduled op completes")
		workers   = flag.Int("workers", 64, "op executor pool size (backlog past it still counts against latency)")
		tenants   = flag.Int("tenants", 3, "synthetic tenants to spread traffic across")
		batchFrac = flag.Float64("batch-frac", 0.1, "fraction of ops that are batch submits")
		batchSize = flag.Int("batch-size", 8, "jobs per batch op")
		traceFrac = flag.Float64("trace-frac", 0.05, "fraction of single ops submitted with trace capture on")
		sseFrac   = flag.Float64("sse-frac", 0.05, "fraction of single ops observed via the SSE event stream")
		agents    = flag.Int("agents", 4, "agents per job (n)")
		tasks     = flag.Int("tasks", 2, "tasks per job (m)")
		sloSpec   = flag.String("slo", "p99<250ms@30d", "objectives evaluated over the measured client-side distribution (empty = none)")
		opTimeout = flag.Duration("op-timeout", time.Minute, "per-op completion deadline")
		seed      = flag.Int64("seed", 1, "base seed for job workloads")
		out       = flag.String("out", "", "report output file (default stdout)")
	)
	flag.Parse()

	var objectives []slo.Objective
	if *sloSpec != "" {
		var err error
		objectives, err = slo.Parse(*sloSpec)
		if err != nil {
			return fmt.Errorf("parsing -slo: %w", err)
		}
	}

	target := *url
	if target == "" {
		if *fleetN <= 0 {
			return fmt.Errorf("need -url or -fleet N")
		}
		fl, err := startFleet(*fleetN, objectives)
		if err != nil {
			return fmt.Errorf("booting in-process fleet: %w", err)
		}
		defer fl.Close()
		target = fl.URL
		fmt.Fprintf(os.Stderr, "dmwload: in-process fleet of %d replicas at %s\n", *fleetN, target)
	}

	rep, err := runLoad(loadConfig{
		URL:        target,
		Rate:       *rate,
		Duration:   *duration,
		Workers:    *workers,
		Tenants:    *tenants,
		BatchFrac:  *batchFrac,
		BatchSize:  *batchSize,
		TraceFrac:  *traceFrac,
		SSEFrac:    *sseFrac,
		Agents:     *agents,
		Tasks:      *tasks,
		Objectives: objectives,
		OpTimeout:  *opTimeout,
		Seed:       *seed,
	})
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		return err
	}
	ls := rep.Load
	fmt.Fprintf(os.Stderr, "dmwload: %d/%d ops ok (%d shed, %d errors) p50=%.1fms p99=%.1fms p999=%.1fms\n",
		ls.Completed, ls.Arrivals, ls.Shed, ls.Errors,
		ls.LatencyMS.P50, ls.LatencyMS.P99, ls.LatencyMS.P999)
	return nil
}
