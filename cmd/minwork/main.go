// Command minwork runs the centralized MinWork mechanism (the Nisan-Ronen
// baseline that DMW distributes) on a random scheduling instance and
// reports the schedule, payments, and approximation quality against the
// exact optimum when the instance is small enough.
//
// Usage:
//
//	minwork [-n agents] [-m tasks] [-max t] [-seed s] [-worstcase]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"dmw/internal/mechanism"
	"dmw/internal/sched"
)

// errUsage marks a command line the flag set rejected (and explained).
var errUsage = errors.New("bad command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "minwork:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("minwork", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n         = fs.Int("n", 4, "number of agents (machines)")
		m         = fs.Int("m", 6, "number of tasks")
		maxT      = fs.Int64("max", 10, "maximum processing time")
		seed      = fs.Int64("seed", 1, "random seed")
		worstcase = fs.Bool("worstcase", false, "use the adversarial n-approximation instance instead of a random one")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	var in *sched.Instance
	if *worstcase {
		in = sched.ApproxWorstCase(*n)
		*m = *n
	} else {
		in = sched.Uniform(rand.New(rand.NewSource(*seed)), *n, *m, 1, *maxT)
	}

	fmt.Fprintf(stdout, "MinWork (centralized): n=%d, m=%d\n\ntrue values (agent x task):\n", *n, *m)
	for i := 0; i < in.Agents(); i++ {
		fmt.Fprintf(stdout, "  A%-2d %v\n", i+1, in.Time[i])
	}

	out, err := mechanism.MinWork{}.Run(in)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nallocation and prices:")
	for j := 0; j < in.Tasks(); j++ {
		fmt.Fprintf(stdout, "  T%-2d -> A%-2d  first price %d, second price %d\n",
			j+1, out.Schedule.Agent[j]+1, out.FirstPrice[j], out.SecondPrice[j])
	}
	fmt.Fprintln(stdout, "\npayments and utilities (truthful agents):")
	for i := 0; i < in.Agents(); i++ {
		fmt.Fprintf(stdout, "  A%-2d payment %-5d utility %-5d\n", i+1, out.Payments[i], mechanism.Utility(out, in, i))
	}
	fmt.Fprintf(stdout, "\nmakespan: %d   total work: %d\n", out.Schedule.Makespan(in), out.Schedule.TotalWork(in))

	if _, opt, err := sched.OptimalMakespan(in); err == nil {
		ratio := float64(out.Schedule.Makespan(in)) / float64(opt)
		fmt.Fprintf(stdout, "optimal makespan: %d   approximation ratio: %.2f (bound: %d)\n", opt, ratio, in.Agents())
	} else {
		fmt.Fprintf(stdout, "optimal makespan: instance too large for exact search (%v)\n", err)
	}
	return nil
}
