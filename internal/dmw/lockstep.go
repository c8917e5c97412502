package dmw

import (
	"time"

	"dmw/internal/commit"
	"dmw/internal/group"
	"dmw/internal/transport"
)

// lockstep is the round fabric of one co-located auction (or of Phase
// IV): the driver steps every agent on the calling goroutine, one after
// another, and then delivers the round's messages together through a
// transport.Round — no lock, no condition variable and no goroutine per
// agent. Counts go into the Round's Tally, merged once by the caller.
type lockstep struct {
	transport.Round
	// realTime makes each round sleep for its slowest delivered message.
	realTime bool
	ports    []port
}

// port is one agent's sending half of the fabric.
type port struct {
	ls *lockstep
	id int
}

func newLockstep(n int, delays [][]time.Duration, realTime bool) *lockstep {
	ls := &lockstep{
		Round:    transport.NewRound(n, delays),
		realTime: realTime,
		ports:    make([]port, n),
	}
	for i := range ls.ports {
		ls.ports[i] = port{ls: ls, id: i}
	}
	return ls
}

// Send queues one private message for delivery at the end of the round.
func (p *port) Send(to int, kind transport.Kind, task int, payload any) error {
	return p.ls.Send(p.id, to, kind, task, payload)
}

// Broadcast publishes to every other agent as n-1 point-to-point sends.
func (p *port) Broadcast(kind transport.Kind, task int, payload any) error {
	p.ls.Broadcast(p.id, kind, task, payload)
	return nil
}

// Crash removes the agent from all future rounds (fail-stop).
func (p *port) Crash() { p.ls.Crash(p.id) }

// deliver ends the round, then, under wall-clock emulation, waits for the
// round's slowest delivered message.
func (ls *lockstep) deliver() {
	if d := ls.Deliver(); ls.realTime && d > 0 {
		time.Sleep(d)
	}
}

// run steps agents to completion in lockstep. Each round steps the live,
// unfinished agents in index order; the share verifications they yield
// are verified in one commit.VerifyBatch pass on g and the agents stepped
// on in the same round; then the round is delivered. An agent whose step
// fails is crashed with an "internal error" view, and the first such
// error is returned once the others finish.
func (ls *lockstep) run(agents []agentRun, g *group.Group) error {
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
			ls.Crash(i)
			a.finish(a.aborted("internal error"))
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
				stepAgent(i, ls.Inbox(i))
			}
		}
		for len(waiting) > 0 {
			batch, waiting = waiting, batch[:0]
			reqs = reqs[:0]
			for _, i := range batch {
				reqs = append(reqs, agents[i].verifyReq)
			}
			for k, err := range commit.VerifyBatch(g, reqs) {
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
