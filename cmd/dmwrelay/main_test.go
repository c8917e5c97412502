package main

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/relaynet"
)

// TestRelaySettlesSession runs the relay for three agents on a free
// loopback port, plays the agents over TCP, and checks that the relay
// settles every agent's payment as agreed.
func TestRelaySettlesSession(t *testing.T) {
	pr, pw := io.Pipe()
	// A hung session fails the test instead of stalling the suite:
	// closing the pipe ends the reads below.
	timer := time.AfterFunc(time.Minute, func() { pr.CloseWithError(errors.New("dmwrelay smoke timed out")) })
	defer timer.Stop()
	errc := make(chan error, 1)
	go func() {
		err := run([]string{"-n", "3", "-listen", "127.0.0.1:0"}, pw, io.Discard)
		pw.CloseWithError(err)
		errc <- err
	}()

	out := bufio.NewScanner(pr)
	var addr string
	for addr == "" && out.Scan() {
		_, addr, _ = strings.Cut(out.Text(), "coordinating 3 agents on ")
	}
	if addr == "" {
		t.Fatalf("no coordinating line: %v", out.Err())
	}

	// Three agents resolve degrees over W = {1, 2} only at c = 0: degree
	// resolution needs w_k - w_1 + c + 2 evaluation points.
	bids := [][]int{{1, 2}, {2, 1}, {2, 2}}
	errs := make([]error, len(bids))
	var wg sync.WaitGroup
	for i := range bids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := relaynet.Dial(addr, i, relaynet.WithRoundTimeout(10*time.Second))
			if err != nil {
				errs[i] = err
				return
			}
			defer cl.Close()
			_, errs[i] = protocol.RunAgentSession(protocol.SessionConfig{
				Params: group.MustPreset(group.PresetTest64),
				Bid:    bidcode.Config{W: []int{1, 2}, C: 0, N: len(bids)},
				MyBids: bids[i],
				Seed:   1,
			}, i, cl)
		}(i)
	}
	var settled []string
	for out.Scan() {
		if strings.HasPrefix(out.Text(), "  agent ") {
			settled = append(settled, out.Text())
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(settled) != len(bids) {
		t.Fatalf("%d settlement lines, want %d: %q", len(settled), len(bids), settled)
	}
	for _, line := range settled {
		if !strings.HasSuffix(line, "[agreed]") {
			t.Errorf("settlement line %q is not agreed", line)
		}
	}
}
