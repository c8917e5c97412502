// Command dmwrelay hosts the synchronous-round fabric for a real
// multi-process DMW deployment: one dmwnode process per agent connects to
// it. The relay is trusted for liveness and ordering only (see package
// relaynet); when the session ends it settles the observed Phase IV
// payment claims and prints the result.
//
// Usage:
//
//	dmwrelay -n 6 -listen :7600
//
// then start n dmwnode processes (see cmd/dmwnode).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"dmw/internal/payment"
	"dmw/internal/relaynet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dmwrelay:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmwrelay", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		n      = fs.Int("n", 6, "number of agents")
		listen = fs.String("listen", "127.0.0.1:7600", "listen address")
	)
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	relay, err := relaynet.Serve(ln, *n)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dmwrelay: coordinating %d agents on %s\n", *n, relay.Addr())
	fmt.Fprintln(stdout, "dmwrelay: waiting for agents (start dmwnode processes now)...")

	if err := relay.Wait(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dmwrelay: session complete; %d point-to-point messages routed (%d payload bytes)\n",
		relay.Stats().Messages(), relay.Stats().Bytes())

	claims := relay.Claims()
	if len(claims) == 0 {
		fmt.Fprintln(stdout, "dmwrelay: no payment claims observed (aborted session?)")
		return nil
	}
	st, err := payment.Settle(claims, *n)
	if err != nil {
		return fmt.Errorf("settling payments: %w", err)
	}
	fmt.Fprintln(stdout, "dmwrelay: payment settlement:")
	for i := range st.Issued {
		status := "agreed"
		if !st.Agreed[i] {
			status = "DISPUTED (no payment)"
		}
		fmt.Fprintf(stdout, "  agent %d: %d  [%s]\n", i, st.Issued[i], status)
	}
	return nil
}
