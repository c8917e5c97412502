// Command dmwsim runs one end-to-end Distributed MinWork execution on a
// randomly generated workload and prints the schedule, prices, payments,
// utilities, and communication costs.
//
// Usage:
//
//	dmwsim [-n agents] [-m tasks] [-w maxbid] [-c faults] [-preset name]
//	       [-seed s] [-parallel k] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"dmw"
	"dmw/internal/audit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dmwsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmwsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 6, "number of agents (machines)")
		m          = fs.Int("m", 3, "number of tasks")
		maxBid     = fs.Int("w", 4, "bid set W = {1..w}")
		c          = fs.Int("c", 1, "maximum number of faulty agents")
		preset     = fs.String("preset", dmw.PresetDemo128, "group parameter preset")
		seed       = fs.Int64("seed", 1, "random seed")
		parallel   = fs.Int("parallel", 0, "max concurrently running auctions (0 = GOMAXPROCS)")
		verbose    = fs.Bool("v", false, "print per-round protocol logs")
		transcript = fs.String("transcript", "", "write a verifiable transcript envelope (JSON) to this file")
	)
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag

	w := make([]int, *maxBid)
	for i := range w {
		w[i] = i + 1
	}
	bids := dmw.RandomBids(*n, *m, w, *seed)
	game, err := dmw.NewGame(*preset, w, *c, bids, *seed)
	if err != nil {
		return err
	}
	game.CountOps = true
	game.Record = *transcript != ""
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	game.Parallelism = *parallel
	effectiveParallel := *parallel
	if effectiveParallel <= 0 {
		effectiveParallel = runtime.GOMAXPROCS(0)
	}
	if effectiveParallel > *m {
		effectiveParallel = *m // never more workers than auctions
	}

	fmt.Fprintf(stdout, "Distributed MinWork: n=%d agents, m=%d tasks, W=%v, c=%d, preset=%s\n\n",
		*n, *m, w, *c, *preset)
	fmt.Fprintln(stdout, "true values (agent x task):")
	for i, row := range bids {
		fmt.Fprintf(stdout, "  A%-2d %v\n", i+1, row)
	}

	res, err := dmw.Run(game)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\nauction outcomes:")
	for _, a := range res.Auctions {
		if a.Aborted {
			fmt.Fprintf(stdout, "  T%-2d ABORTED (%s)\n", a.Task+1, a.AbortReason)
			continue
		}
		fmt.Fprintf(stdout, "  T%-2d -> A%-2d  first price %d, second price %d\n",
			a.Task+1, a.Winner+1, a.FirstPrice, a.SecondPrice)
	}

	fmt.Fprintln(stdout, "\npayments and utilities:")
	for i := 0; i < *n; i++ {
		fmt.Fprintf(stdout, "  A%-2d payment %-4d utility %-4d agreed=%v\n",
			i+1, res.Settlement.Issued[i], res.Utilities[i], res.Settlement.Agreed[i])
	}

	fmt.Fprintf(stdout, "\ncommunication: %d point-to-point messages, %d payload bytes\n",
		res.Stats.Messages(), res.Stats.Bytes())
	if res.AgentOps != nil {
		var exp, mul uint64
		for _, ops := range res.AgentOps {
			exp += ops.Exp()
			mul += ops.Mul()
		}
		fmt.Fprintf(stdout, "computation:   %d modular exponentiations, %d multiplications (all agents)\n", exp, mul)
	}

	// Centralized reference.
	ref, err := dmw.RunCentralized(bids)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "matches centralized MinWork outcome: %v\n", res.Outcome.Equal(ref))

	if *transcript != "" {
		f, err := os.Create(*transcript)
		if err != nil {
			return err
		}
		if err := audit.Save(f, game.Params, res.Transcript); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "transcript written to %s (verify with: dmwaudit %s)\n", *transcript, *transcript)
	}

	if *verbose {
		fmt.Fprintf(stdout, "\nauction parallelism: %d (of %d auctions; -parallel %d)\n",
			effectiveParallel, *m, *parallel)
		fmt.Fprintln(stdout, "\nprotocol round logs (agent 1's view):")
		for j, log := range res.RoundLogs {
			fmt.Fprintf(stdout, "  auction %d:\n", j+1)
			for _, line := range log {
				fmt.Fprintf(stdout, "    %s\n", line)
			}
		}
	}
	return nil
}
