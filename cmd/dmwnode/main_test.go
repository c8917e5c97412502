package main

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"dmw"
	"dmw/internal/relaynet"
)

// TestNodesAgreeWithCentralized runs three nodes against an in-process
// relay and checks that each prints, for every task, the winner and
// price the centralized MinWork mechanism picks.
func TestNodesAgreeWithCentralized(t *testing.T) {
	// Three agents resolve degrees over W = {1, 2} only at c = 0: degree
	// resolution needs w_k - w_1 + c + 2 evaluation points.
	bids := [][]int{{1, 2}, {2, 1}, {2, 2}}
	want, err := dmw.RunCentralized(bids)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := relaynet.Serve(ln, len(bids))
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	outs := make([]bytes.Buffer, len(bids))
	errs := make([]error, len(bids))
	var wg sync.WaitGroup
	for i := range bids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var stderr bytes.Buffer
			errs[i] = run([]string{
				"-id", strconv.Itoa(i), "-relay", relay.Addr().String(),
				"-n", strconv.Itoa(len(bids)), "-w", "2", "-c", "0", "-preset", dmw.PresetTest64,
				"-bids", fmt.Sprintf("%d,%d", bids[i][0], bids[i][1]), "-timeout", "10s",
			}, &outs[i], &stderr)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		relay.Close() // fails every node's next round
		<-done
		t.Fatal("dmwnode smoke timed out")
	}

	line := regexp.MustCompile(`task (\d+) -> agent (\d+) at price (\d+)`)
	for i := range bids {
		if errs[i] != nil {
			t.Fatalf("node %d: %v\n%s", i, errs[i], outs[i].String())
		}
		got := line.FindAllStringSubmatch(outs[i].String(), -1)
		if len(got) != len(bids[0]) {
			t.Fatalf("node %d printed %d task results, want %d:\n%s", i, len(got), len(bids[0]), outs[i].String())
		}
		for _, m := range got {
			task, _ := strconv.Atoi(m[1])
			winner, _ := strconv.Atoi(m[2])
			price, _ := strconv.ParseInt(m[3], 10, 64)
			if winner != want.Schedule.Agent[task] || price != want.SecondPrice[task] {
				t.Errorf("node %d task %d: agent %d at %d, centralized agent %d at %d",
					i, task, winner, price, want.Schedule.Agent[task], want.SecondPrice[task])
			}
		}
	}
}
