// Package transport simulates the communication infrastructure DMW
// assumes: private point-to-point channels between every pair of agents
// plus a broadcast ("publish") facility. Following Theorem 11's cost
// model, broadcast has no dedicated facility and is implemented as n-1
// point-to-point transmissions, which the statistics record.
//
// Communication proceeds in synchronous rounds, which realize the paper's
// "implicit synchronization" (step II.4): an agent sends any number of
// messages during a round, and at the end of the round every live agent
// receives the messages addressed to it. A withheld message is therefore
// detectable deterministically — it simply is not among the round's
// deliveries — without wall-clock timeouts.
//
// Round is that rule, and the only implementation of it: deliveries
// sorted by (From, Kind, Task), nothing delivered to a crashed agent and
// nothing sent by one after it crashed, counts in a Tally. Every fabric is
// a Round behind a barrier: package dmw's Run steps each auction's agents
// on one goroutine over a Round; Network blocks one goroutine per agent in
// Endpoint.FinishRound; package relaynet's relay holds one for agents in
// separate processes.
package transport

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Kind labels a protocol message for routing and accounting.
type Kind int

// Message kinds, one per protocol step that transmits data.
const (
	// KindBid is the single bid message of centralized MinWork
	// (agent -> center), used by the baseline cost accounting.
	KindBid Kind = iota
	// KindShare carries the four polynomial evaluations of step II.2.
	KindShare
	// KindCommitments carries the O/Q/R vectors of step II.3.
	KindCommitments
	// KindLambdaPsi carries the published pair of step III.2.
	KindLambdaPsi
	// KindDisclosure carries the winner-identification f-shares of
	// step III.3.
	KindDisclosure
	// KindSecondPrice carries the winner-excluded pair of step III.4.
	KindSecondPrice
	// KindPaymentClaim carries an agent's computed payment vector of
	// Phase IV.
	KindPaymentClaim
	// KindAbort announces that the sender detected a protocol violation
	// and aborts the auction.
	KindAbort
	// KindEcho carries the digest-exchange of the optional echo
	// verification (see package dmw's echo.go).
	KindEcho

	numKinds = int(KindEcho) + 1
)

var kindNames = [...]string{
	"bid", "share", "commitments", "lambda-psi", "disclosure",
	"second-price", "payment-claim", "abort", "echo",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if k < 0 || int(k) >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Phase returns the protocol phase the kind belongs to (II Bidding,
// III Allocating Tasks, IV Payments), for per-phase accounting.
func (k Kind) Phase() string {
	switch k {
	case KindBid, KindShare, KindCommitments:
		return "II-bidding"
	case KindLambdaPsi, KindDisclosure, KindSecondPrice, KindAbort:
		return "III-allocating"
	case KindEcho:
		return "echo-verification"
	case KindPaymentClaim:
		return "IV-payments"
	default:
		return "unknown"
	}
}

// Sizer lets payloads report their approximate wire size for the
// byte-level communication accounting of experiment T1-comm.
type Sizer interface {
	WireSize() int
}

// Message is one point-to-point transmission.
type Message struct {
	From, To int
	Kind     Kind
	// Task is the auction (task index) the message belongs to.
	Task    int
	Payload any
}

// Tally is the lock-free core of Stats: the counts of one Round, merged
// into a shared Stats with Stats.Add or copied out with Tally.Stats.
type Tally struct {
	byKind   [numKinds]int64
	messages int64
	bytes    int64
	rounds   int64
	// virtual is the simulated wall-clock time accumulated by the
	// latency model (see NewRound).
	virtual time.Duration
}

// record counts one point-to-point message.
func (t *Tally) record(k Kind, payload any) {
	if k >= 0 && int(k) < numKinds {
		t.byKind[k]++
	}
	t.messages++
	if sz, ok := payload.(Sizer); ok && sz != nil {
		t.bytes += int64(sz.WireSize())
	}
}

// Stats returns a Stats holding a copy of the tally.
func (t *Tally) Stats() *Stats { return &Stats{t: *t} }

// Stats accumulates communication costs. Safe for concurrent use.
type Stats struct {
	mu sync.Mutex
	t  Tally
}

// Rounds returns the number of completed communication rounds.
func (s *Stats) Rounds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.rounds
}

// VirtualTime returns the simulated end-to-end time under the latency
// model: each round completes when its slowest message arrives, and
// rounds are sequential. Zero when no delay model is installed.
func (s *Stats) VirtualTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.virtual
}

// Messages returns the total point-to-point message count.
func (s *Stats) Messages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.messages
}

// Bytes returns the total payload bytes (for payloads implementing Sizer).
func (s *Stats) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.bytes
}

// ByKind returns the message count for one kind.
func (s *Stats) ByKind(k Kind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < 0 || int(k) >= numKinds {
		return 0
	}
	return s.t.byKind[k]
}

// ByPhase aggregates message counts by protocol phase.
func (s *Stats) ByPhase() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64)
	for k := 0; k < numKinds; k++ {
		out[Kind(k).Phase()] += s.t.byKind[k]
	}
	return out
}

// Add merges a tally into s.
func (s *Stats) Add(t *Tally) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range t.byKind {
		s.t.byKind[k] += t.byKind[k]
	}
	s.t.messages += t.messages
	s.t.bytes += t.bytes
	s.t.rounds += t.rounds
	if t.virtual > s.t.virtual {
		// Parallel auctions overlap in time: the session's virtual time
		// is the slowest auction's, not the sum.
		s.t.virtual = t.virtual
	}
}

// SortMessages orders one agent's deliveries by (From, Kind, Task),
// stably: the delivery order of every round fabric.
func SortMessages(msgs []Message) {
	slices.SortStableFunc(msgs, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Task, b.Task))
	})
}

// Round is the mailboxes of an n-agent round fabric and its one delivery
// rule. Sends queue until Deliver ends the round; Deliver hands every live
// agent the round's messages addressed to it, sorted by SortMessages.
// Nothing is delivered to a crashed agent, and nothing it sends after it
// crashed is queued; sends it made earlier in the round are still
// delivered. Sent messages are counted in the embedded Tally as they are
// queued, each round as it is delivered. A Round is not safe for
// concurrent use: Network and the relay hold it under their lock.
type Round struct {
	Tally
	crashed []bool
	// pending[to] collects the current round's sends to agent to;
	// inbox[to] holds the last round's deliveries. Deliver swaps the two,
	// so rounds reuse one slab.
	pending [][]Message
	inbox   [][]Message
	delays  [][]time.Duration
}

// NewRound returns the mailboxes of an n-agent fabric. delays, when
// non-nil, is an n x n one-way latency matrix for the virtual-clock
// model (delays[i][i] is ignored): a round takes as long as the slowest
// link that delivered a message in it, since all of a round's messages
// travel in parallel, and rounds add up in Tally's virtual time.
func NewRound(n int, delays [][]time.Duration) Round {
	r := Round{
		crashed: make([]bool, n),
		pending: make([][]Message, n),
		inbox:   make([][]Message, n),
		delays:  delays,
	}
	// Every mailbox starts with room for the largest protocol round, a
	// share and a publication from each peer, so sends allocate only past
	// it.
	per := 2 * (n - 1)
	slab := make([]Message, 2*n*per)
	for i := 0; i < n; i++ {
		r.pending[i] = slab[2*i*per : 2*i*per : (2*i+1)*per]
		r.inbox[i] = slab[(2*i+1)*per : (2*i+1)*per : (2*i+2)*per]
	}
	return r
}

// N returns the number of agents.
func (r *Round) N() int { return len(r.crashed) }

// Send queues one private message from agent from for delivery at the
// end of the round. Sending to self or from a crashed agent is a silent
// no-op; an out-of-range recipient is an error.
func (r *Round) Send(from, to int, kind Kind, task int, payload any) error {
	if to < 0 || to >= len(r.pending) {
		return fmt.Errorf("transport: recipient %d out of range", to)
	}
	if to == from || r.crashed[from] {
		return nil
	}
	r.pending[to] = append(r.pending[to], Message{From: from, To: to, Kind: kind, Task: task, Payload: payload})
	r.record(kind, payload)
	return nil
}

// Broadcast publishes a message from agent from to every other agent, as
// n-1 point-to-point sends (Theorem 11's model).
func (r *Round) Broadcast(from int, kind Kind, task int, payload any) {
	for to := range r.pending {
		r.Send(from, to, kind, task, payload)
	}
}

// Crash removes agent id from the rest of the run (fail-stop).
func (r *Round) Crash(id int) { r.crashed[id] = true }

// Crashed reports whether agent id has crashed.
func (r *Round) Crashed(id int) bool { return r.crashed[id] }

// Inbox returns agent id's deliveries of the last round. The next
// Deliver hands the slice back to the mailbox, so it is overwritten by
// the sends of the round after that.
func (r *Round) Inbox(id int) []Message { return r.inbox[id] }

// Deliver ends the round: every live agent's queued messages become its
// inbox, sorted by (From, Kind, Task), and a crashed agent's are dropped.
// It returns the slowest delivered message's link delay (0 without a
// delay matrix), which it also adds to the virtual time.
func (r *Round) Deliver() time.Duration {
	var slowest time.Duration
	for to, msgs := range r.pending {
		r.pending[to] = r.inbox[to][:0]
		if r.crashed[to] {
			r.inbox[to] = msgs[:0] // lost
			continue
		}
		SortMessages(msgs)
		if r.delays != nil {
			for _, m := range msgs {
				slowest = max(slowest, r.delays[m.From][to])
			}
		}
		r.inbox[to] = msgs
	}
	r.rounds++
	r.virtual += slowest
	return slowest
}

// Conn is the agent-side transport interface the protocol engine runs
// over. Package transport's in-memory Endpoint implements it for
// simulations; package relaynet implements it over TCP for real
// multi-process deployments.
type Conn interface {
	// ID returns the agent index this connection belongs to.
	ID() int
	// Send transmits one private point-to-point message for delivery at
	// the end of the current round.
	Send(to int, kind Kind, task int, payload any) error
	// Broadcast publishes a message to every other agent (n-1
	// point-to-point transmissions in the paper's cost model).
	Broadcast(kind Kind, task int, payload any) error
	// FinishRound ends the round, blocks for the other agents, and
	// returns this agent's deliveries sorted by (From, Kind, Task). The
	// fabric may reuse the returned slice: it stays valid until this
	// agent's next FinishRound returns.
	FinishRound() []Message
	// Crash removes the agent from all future rounds (fail-stop).
	Crash()
}

// Network is a synchronous-round message fabric for n agents, each on
// its own goroutine: a barrier around a Round.
type Network struct {
	mu      sync.Mutex
	cond    *sync.Cond
	round   Round
	arrived int    // agents that called FinishRound this round
	live    int    // agents still participating in barriers
	gen     uint64 // round generation, increments at each barrier release
}

// New creates a network for n agents with fresh statistics.
func New(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least 1 agent, got %d", n)
	}
	nw := &Network{round: NewRound(n, nil), live: n}
	nw.cond = sync.NewCond(&nw.mu)
	return nw, nil
}

// N returns the number of agents.
func (nw *Network) N() int { return nw.round.N() }

// Stats returns a snapshot of the network's cost accounting.
func (nw *Network) Stats() *Stats {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.round.Stats()
}

// Endpoint returns agent id's handle on the network.
func (nw *Network) Endpoint(id int) (*Endpoint, error) {
	if id < 0 || id >= nw.N() {
		return nil, fmt.Errorf("transport: endpoint id %d out of range [0,%d)", id, nw.N())
	}
	return &Endpoint{id: id, nw: nw}, nil
}

// Endpoint is one agent's interface to the network. An Endpoint is only
// safe for use by a single goroutine (its agent); distinct endpoints may
// be used concurrently.
type Endpoint struct {
	id int
	nw *Network
}

// ID returns the agent index this endpoint belongs to.
func (ep *Endpoint) ID() int { return ep.id }

// Send transmits one private point-to-point message, delivered to the
// recipient at the end of the current round (see Round.Send).
func (ep *Endpoint) Send(to int, kind Kind, task int, payload any) error {
	ep.nw.mu.Lock()
	defer ep.nw.mu.Unlock()
	return ep.nw.round.Send(ep.id, to, kind, task, payload)
}

// Broadcast publishes a message to every other agent, costed as n-1
// point-to-point transmissions (Theorem 11's model).
func (ep *Endpoint) Broadcast(kind Kind, task int, payload any) error {
	ep.nw.mu.Lock()
	defer ep.nw.mu.Unlock()
	ep.nw.round.Broadcast(ep.id, kind, task, payload)
	return nil
}

// FinishRound ends the endpoint's participation in the current round,
// blocks until every live agent has finished, and returns the messages
// delivered to this endpoint (see Conn.FinishRound). Calling FinishRound
// on a crashed endpoint returns nil immediately.
func (ep *Endpoint) FinishRound() []Message {
	nw := ep.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.round.Crashed(ep.id) {
		return nil
	}
	nw.arrived++
	if nw.arrived >= nw.live {
		nw.deliverLocked()
	} else {
		gen := nw.gen
		for nw.gen == gen && !nw.round.Crashed(ep.id) {
			nw.cond.Wait()
		}
		if nw.round.Crashed(ep.id) {
			return nil
		}
	}
	return nw.round.Inbox(ep.id)
}

// deliverLocked ends the round and releases the barrier. Caller holds
// nw.mu.
func (nw *Network) deliverLocked() {
	nw.round.Deliver()
	nw.arrived = 0
	nw.gen++
	nw.cond.Broadcast()
}

// Crash removes the endpoint from all future rounds: nothing is
// delivered to it any more, its later sends are no-ops, and other agents
// no longer wait for it. Sends it made earlier in the round are still
// delivered. Crash is idempotent.
func (ep *Endpoint) Crash() {
	nw := ep.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.round.Crashed(ep.id) {
		return
	}
	nw.round.Crash(ep.id)
	nw.live--
	if nw.live > 0 && nw.arrived >= nw.live {
		nw.deliverLocked()
	} else {
		// Wake the endpoint itself if it is blocked in FinishRound.
		nw.cond.Broadcast()
	}
}

// Crashed reports whether the endpoint has crashed.
func (ep *Endpoint) Crashed() bool {
	ep.nw.mu.Lock()
	defer ep.nw.mu.Unlock()
	return ep.nw.round.Crashed(ep.id)
}

// Interface conformance: the in-memory endpoint is a Conn.
var _ Conn = (*Endpoint)(nil)
