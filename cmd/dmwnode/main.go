// Command dmwnode runs ONE agent of a real multi-process DMW deployment,
// connecting to a dmwrelay. Each operator starts a node with its own
// private true values; no process other than the node ever sees them.
//
// Usage (6 agents, 2 tasks):
//
//	dmwrelay -n 6 &
//	dmwnode -id 0 -relay 127.0.0.1:7600 -n 6 -bids 1,4 &
//	dmwnode -id 1 -relay 127.0.0.1:7600 -n 6 -bids 3,2 &
//	... one per agent ...
//
// All nodes must agree on the published parameters (-preset, -w, -c, -n,
// -seed correspond to the paper's Phase I publication).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dmw"
	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/relaynet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dmwnode:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmwnode", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		id      = fs.Int("id", -1, "this agent's index (0-based)")
		relay   = fs.String("relay", "127.0.0.1:7600", "relay address")
		n       = fs.Int("n", 6, "number of agents (published)")
		maxBid  = fs.Int("w", 4, "bid set W = {1..w} (published)")
		c       = fs.Int("c", 1, "fault bound c (published)")
		preset  = fs.String("preset", dmw.PresetDemo128, "group parameter preset (published)")
		pfile   = fs.String("params", "", "JSON parameter file (overrides -preset; see dmwparams)")
		bids    = fs.String("bids", "", "comma-separated true values, one per task (PRIVATE)")
		seed    = fs.Int64("seed", 1, "seed for this node's polynomial randomness")
		crand   = fs.Bool("crypto-rand", false, "use crypto/rand for polynomial coefficients")
		timeout = fs.Duration("timeout", 60*time.Second, "round timeout")
	)
	fs.Parse(args) // ExitOnError: exits 0 on -h, 2 on a bad flag

	if *id < 0 {
		return fmt.Errorf("missing -id")
	}
	if *bids == "" {
		return fmt.Errorf("missing -bids")
	}
	myBids, err := parseBids(*bids)
	if err != nil {
		return err
	}
	params, err := group.ResolveParams(*pfile, *preset, func(path string) (io.ReadCloser, error) {
		return os.Open(path)
	})
	if err != nil {
		return err
	}
	w := make([]int, *maxBid)
	for i := range w {
		w[i] = i + 1
	}
	cfg := protocol.SessionConfig{
		Params:     params,
		Bid:        bidcode.Config{W: w, C: *c, N: *n},
		MyBids:     myBids,
		Seed:       *seed,
		CryptoRand: *crand,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "dmwnode %d: connecting to relay %s\n", *id, *relay)
	client, err := relaynet.Dial(*relay, *id, relaynet.WithRoundTimeout(*timeout))
	if err != nil {
		return err
	}
	defer client.Close()
	fmt.Fprintf(stdout, "dmwnode %d: joined a %d-agent session, %d tasks to auction\n", *id, client.N(), len(myBids))

	res, err := protocol.RunAgentSession(cfg, *id, client)
	if err != nil {
		return err
	}
	if err := client.Err(); err != nil {
		fmt.Fprintf(stdout, "dmwnode %d: transport degraded during session: %v\n", *id, err)
	}
	for _, v := range res.Views {
		if v.Aborted {
			fmt.Fprintf(stdout, "dmwnode %d: task %d ABORTED (%s)\n", *id, v.Task, v.AbortReason)
			continue
		}
		mine := ""
		if v.Winner == *id {
			mine = "  <- I execute this task"
		}
		fmt.Fprintf(stdout, "dmwnode %d: task %d -> agent %d at price %d%s\n",
			*id, v.Task, v.Winner, v.SecondPrice, mine)
	}
	if res.Claim != nil {
		fmt.Fprintf(stdout, "dmwnode %d: submitted payment claim %v\n", *id, res.Claim)
	}
	return nil
}

func parseBids(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing -bids: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}
