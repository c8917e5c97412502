// Command dmwaudit verifies a recorded DMW execution offline: given a
// transcript envelope (written by dmwsim -transcript), it re-derives
// every auction's outcome from the published commitments, Lambda/Psi
// pairs, disclosures and winner-excluded pairs, and checks the claimed
// outcomes and settled payments — without access to any secret.
//
// Usage:
//
//	dmwsim -transcript run.json
//	dmwaudit run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dmw/internal/audit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dmwaudit:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmwaudit", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dmwaudit <transcript.json>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()

	env, err := audit.Load(f)
	if err != nil {
		return err
	}
	rep, err := audit.Verify(env.Params, env.Transcript)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dmwaudit: %d auctions checked, %d findings\n", rep.AuctionsChecked, len(rep.Findings))
	for _, finding := range rep.Findings {
		fmt.Fprintf(stdout, "  FINDING: %s\n", finding)
	}
	if rep.OK() {
		fmt.Fprintln(stdout, "dmwaudit: transcript VERIFIED — claimed outcomes and payments are consistent with the published record")
		return nil
	}
	return fmt.Errorf("transcript FAILED verification")
}
