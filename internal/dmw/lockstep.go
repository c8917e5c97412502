package dmw

import (
	"cmp"
	"slices"
	"time"

	"dmw/internal/commit"
	"dmw/internal/transport"
)

// lockstep is the round fabric of one co-located auction (or of Phase
// IV): the driver steps every agent on the calling goroutine, one after
// another, and then delivers the round's messages together. It keeps
// transport.Network's semantics — each agent's deliveries sorted by
// (From, Kind, Task); a crashed agent's later sends are lost, nothing is
// delivered to it, and nobody waits for it; the delay model's virtual
// clock, and under wall-clock emulation one sleep per round for its
// slowest message — with no lock, no condition variable and no goroutine
// per agent. Counts go into a plain Tally, merged once by the caller.
type lockstep struct {
	crashed []bool
	// pending[to] collects the current round's sends to agent to;
	// inbox[to] holds the last round's deliveries. deliver swaps the two,
	// so rounds reuse one slab.
	pending [][]transport.Message
	inbox   [][]transport.Message
	delays  [][]time.Duration
	// realTime makes each round sleep for its slowest delivered message.
	realTime bool
	tally    transport.Tally
	ports    []port
}

// port is one agent's sending half of the fabric.
type port struct {
	ls *lockstep
	id int
}

func newLockstep(n int, delays [][]time.Duration, realTime bool) *lockstep {
	ls := &lockstep{
		crashed:  make([]bool, n),
		pending:  make([][]transport.Message, n),
		inbox:    make([][]transport.Message, n),
		delays:   delays,
		realTime: realTime && delays != nil,
		ports:    make([]port, n),
	}
	// Every mailbox starts with room for the largest round, a share and a
	// publication from each peer, so sends allocate only past it.
	per := 2 * (n - 1)
	slab := make([]transport.Message, 2*n*per)
	for i := range ls.ports {
		ls.ports[i] = port{ls: ls, id: i}
		ls.pending[i] = slab[2*i*per : 2*i*per : (2*i+1)*per]
		ls.inbox[i] = slab[(2*i+1)*per : (2*i+1)*per : (2*i+2)*per]
	}
	return ls
}

// Send queues one private message for delivery at the end of the round.
// Sending to self or from a crashed agent is a silent no-op.
func (p *port) Send(to int, kind transport.Kind, task int, payload any) error {
	ls := p.ls
	if to == p.id || ls.crashed[p.id] {
		return nil
	}
	ls.pending[to] = append(ls.pending[to], transport.Message{
		From: p.id, To: to, Kind: kind, Task: task, Payload: payload,
	})
	ls.tally.Record(kind, payload)
	return nil
}

// Broadcast publishes to every other agent as n-1 point-to-point sends.
func (p *port) Broadcast(kind transport.Kind, task int, payload any) error {
	for to := range p.ls.pending {
		p.Send(to, kind, task, payload)
	}
	return nil
}

// Crash removes the agent from all future rounds (fail-stop).
func (p *port) Crash() { p.ls.crashed[p.id] = true }

// deliver ends the round: every live agent's pending messages become its
// inbox, sorted by (From, Kind, Task).
func (ls *lockstep) deliver() {
	var slowest time.Duration
	for to, msgs := range ls.pending {
		ls.pending[to] = ls.inbox[to][:0]
		if ls.crashed[to] {
			ls.inbox[to] = msgs[:0] // lost
			continue
		}
		sortMessages(msgs)
		if ls.delays != nil {
			for _, m := range msgs {
				slowest = max(slowest, ls.delays[m.From][to])
			}
		}
		ls.inbox[to] = msgs
	}
	if ls.realTime && slowest > 0 {
		time.Sleep(slowest)
	}
	ls.tally.RecordRound(slowest)
}

// sortMessages orders one agent's deliveries by (From, Kind, Task),
// stably, as transport.Network delivers them.
func sortMessages(msgs []transport.Message) {
	slices.SortStableFunc(msgs, func(a, b transport.Message) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Task, b.Task))
	})
}

// run steps agents to completion in lockstep. Each round steps the live,
// unfinished agents in index order; the share verifications they yield
// are verified as one batch through verifier and the agents stepped on in
// the same round; then the round is delivered. An agent whose step fails
// is crashed with an "internal error" view, and the first such error is
// returned once the others finish.
func (ls *lockstep) run(agents []agentRun, verifier *commit.Coalescer) error {
	var (
		firstErr error
		more     bool
		waiting  []int
		batch    []int
		reqs     []commit.Request
	)
	stepAgent := func(i int, inbox []transport.Message) {
		a := &agents[i]
		y, err := a.step(inbox)
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = err
			}
			ls.ports[i].Crash()
			a.view = &AuctionOutcome{Task: a.env.task, Aborted: true, AbortReason: "internal error", Winner: -1}
			a.state = stDone
		case y == yieldVerify:
			waiting = append(waiting, i)
		case y == yieldRound:
			more = true
		}
	}
	for {
		more = false
		for i := range agents {
			if agents[i].state != stDone {
				stepAgent(i, ls.inbox[i])
			}
		}
		for len(waiting) > 0 {
			batch, waiting = waiting, batch[:0]
			reqs = reqs[:0]
			for _, i := range batch {
				reqs = append(reqs, agents[i].verifyReq)
			}
			for k, err := range verifier.VerifyBatch(reqs) {
				agents[batch[k]].verifyErr = err
			}
			for _, i := range batch {
				stepAgent(i, nil)
			}
		}
		if !more {
			return firstErr
		}
		ls.deliver()
	}
}
