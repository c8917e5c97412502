// Package transport simulates the communication infrastructure DMW
// assumes: private point-to-point channels between every pair of agents
// plus a broadcast ("publish") facility. Following Theorem 11's cost
// model, broadcast has no dedicated facility and is implemented as n-1
// point-to-point transmissions, which the statistics record.
//
// Communication proceeds in synchronous rounds, which realize the paper's
// "implicit synchronization" (step II.4): an agent sends any number of
// messages during a round and then calls Endpoint.FinishRound, which
// blocks until every live agent has finished the round and returns the
// messages addressed to it. A withheld message is therefore detectable
// deterministically — it simply is not among the round's deliveries —
// without wall-clock timeouts.
//
// Network is the blocking fabric: each agent runs in its own goroutine
// (one process per agent in a real deployment, see package relaynet), and
// a Network is safe for concurrent use by its endpoints. Co-located runs
// (package dmw's Run) do not use it: they step every agent of an auction
// on one goroutine over a lockstep fabric with the same semantics and the
// same cost accounting, counted in a Tally.
package transport

import (
	"fmt"
	"sort"
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

// Tally is the lock-free core of Stats: the counts of a fabric driven by
// one goroutine (package dmw's lockstep driver steps a whole auction on
// one), merged into a shared Stats once with Stats.Add.
type Tally struct {
	byKind   [numKinds]int64
	messages int64
	bytes    int64
	rounds   int64
	// virtual simulated wall-clock time accumulated by the latency
	// model (see Network.SetDelays).
	virtual time.Duration
}

// Record counts one point-to-point message.
func (t *Tally) Record(k Kind, payload any) {
	if k >= 0 && int(k) < numKinds {
		t.byKind[k]++
	}
	t.messages++
	if sz, ok := payload.(Sizer); ok && sz != nil {
		t.bytes += int64(sz.WireSize())
	}
}

// RecordRound counts one completed round whose slowest message took
// virtual under the delay model (0 without one).
func (t *Tally) RecordRound(virtual time.Duration) {
	t.rounds++
	t.virtual += virtual
}

// Stats accumulates communication costs. Safe for concurrent use.
type Stats struct {
	mu sync.Mutex
	t  Tally
}

// Record counts one point-to-point message. It is exported so external
// round fabrics (e.g. the TCP relay in package relaynet) can account
// messages with the same cost model as the in-memory network.
func (s *Stats) Record(k Kind, payload any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.Record(k, payload)
}

// RecordRound counts one completed communication round (used for the
// latency model: end-to-end time on a network with RTT t is roughly
// rounds * t, since all of a round's messages travel in parallel).
func (s *Stats) RecordRound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.rounds++
}

// Rounds returns the number of completed communication rounds.
func (s *Stats) Rounds() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.rounds
}

// recordVirtual accumulates simulated time.
func (s *Stats) recordVirtual(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t.virtual += d
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

// Merge adds another Stats' totals into s.
func (s *Stats) Merge(o *Stats) {
	o.mu.Lock()
	t := o.t
	o.mu.Unlock()
	s.Add(&t)
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
	// returns this agent's deliveries sorted by (From, Kind, Task).
	FinishRound() []Message
	// Crash removes the agent from all future rounds (fail-stop).
	Crash()
}

// Network is a synchronous-round message fabric for n agents.
type Network struct {
	n     int
	stats *Stats

	mu      sync.Mutex
	cond    *sync.Cond
	pending [][]Message // per-recipient buffers for the current round
	arrived int         // agents that called FinishRound this round
	live    int         // agents still participating in barriers
	crashed []bool
	gen     uint64 // round generation, increments at each barrier release
	inboxes [][]Message
	// delays[i][j], when set, is the one-way latency from agent i to
	// agent j for the virtual-clock latency model.
	delays [][]time.Duration
	// realTime, when set alongside delays, makes each round barrier
	// actually WAIT (wall clock) for the round's slowest in-flight
	// message instead of only accounting it virtually — WAN emulation
	// for end-to-end latency/throughput experiments.
	realTime bool
}

// New creates a network for n agents with fresh statistics.
func New(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least 1 agent, got %d", n)
	}
	nw := &Network{
		n:       n,
		stats:   &Stats{},
		pending: make([][]Message, n),
		live:    n,
		crashed: make([]bool, n),
		inboxes: make([][]Message, n),
	}
	nw.cond = sync.NewCond(&nw.mu)
	return nw, nil
}

// SetDelays installs a per-link one-way latency matrix for the
// virtual-clock model: a round's completion time is the maximum delay of
// any message actually sent in it (all messages travel in parallel), and
// Stats.VirtualTime accumulates rounds sequentially. The matrix must be
// n x n; delays[i][i] is ignored. Call before the first round.
func (nw *Network) SetDelays(delays [][]time.Duration) error {
	if len(delays) != nw.n {
		return fmt.Errorf("transport: delay matrix has %d rows, want %d", len(delays), nw.n)
	}
	for i, row := range delays {
		if len(row) != nw.n {
			return fmt.Errorf("transport: delay row %d has %d entries, want %d", i, len(row), nw.n)
		}
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.delays = delays
	return nil
}

// SetRealTime switches the latency model from virtual-clock accounting
// to wall-clock emulation: when enabled (and a delay matrix is
// installed), the last agent to finish a round sleeps for the round's
// slowest in-flight message before the barrier releases, so a run
// behaves — in real time — like agents separated by the configured
// link latencies. Virtual-time accounting still accumulates, so
// Stats.VirtualTime matches the emulated wait. Call before the first
// round.
func (nw *Network) SetRealTime(on bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.realTime = on
}

// N returns the number of agents.
func (nw *Network) N() int { return nw.n }

// Stats returns the network's cost accumulator.
func (nw *Network) Stats() *Stats { return nw.stats }

// Endpoint returns agent id's handle on the network.
func (nw *Network) Endpoint(id int) (*Endpoint, error) {
	if id < 0 || id >= nw.n {
		return nil, fmt.Errorf("transport: endpoint id %d out of range [0,%d)", id, nw.n)
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
// recipient at the end of the current round. Sending to self or from a
// crashed endpoint is a silent no-op (a crashed agent's sends are lost).
func (ep *Endpoint) Send(to int, kind Kind, task int, payload any) error {
	if to < 0 || to >= ep.nw.n {
		return fmt.Errorf("transport: recipient %d out of range", to)
	}
	if to == ep.id {
		return nil
	}
	nw := ep.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.crashed[ep.id] {
		return nil
	}
	nw.pending[to] = append(nw.pending[to], Message{
		From: ep.id, To: to, Kind: kind, Task: task, Payload: payload,
	})
	nw.stats.Record(kind, payload)
	return nil
}

// Broadcast publishes a message to every other agent, costed as n-1
// point-to-point transmissions (Theorem 11's model).
func (ep *Endpoint) Broadcast(kind Kind, task int, payload any) error {
	for to := 0; to < ep.nw.n; to++ {
		if to == ep.id {
			continue
		}
		if err := ep.Send(to, kind, task, payload); err != nil {
			return err
		}
	}
	return nil
}

// FinishRound ends the endpoint's participation in the current round,
// blocks until every live agent has finished, and returns the messages
// delivered to this endpoint, sorted by (From, Kind, Task) for
// determinism. Calling FinishRound on a crashed endpoint returns nil
// immediately.
func (ep *Endpoint) FinishRound() []Message {
	nw := ep.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.crashed[ep.id] {
		return nil
	}
	nw.arrived++
	if nw.arrived >= nw.live {
		if wait := nw.realTimeWaitLocked(); wait > 0 {
			// WAN emulation: the closing agent sleeps for the round's
			// slowest in-flight message WITHOUT holding the lock, then
			// delivers — unless a concurrent Crash already released the
			// barrier (generation guard).
			gen := nw.gen
			nw.mu.Unlock()
			time.Sleep(wait)
			nw.mu.Lock()
			if nw.gen != gen {
				out := nw.inboxes[ep.id]
				nw.inboxes[ep.id] = nil
				return out
			}
		}
		nw.deliverLocked()
	} else {
		gen := nw.gen
		for nw.gen == gen && !nw.crashed[ep.id] {
			nw.cond.Wait()
		}
	}
	out := nw.inboxes[ep.id]
	nw.inboxes[ep.id] = nil
	return out
}

// realTimeWaitLocked returns the wall-clock wait the closing agent owes
// the current round under WAN emulation: the slowest delay of any
// pending message bound for a live recipient, or 0 when emulation is
// off. Caller holds nw.mu.
func (nw *Network) realTimeWaitLocked() time.Duration {
	if !nw.realTime || nw.delays == nil {
		return 0
	}
	var slowest time.Duration
	for to := 0; to < nw.n; to++ {
		if nw.crashed[to] {
			continue
		}
		for _, m := range nw.pending[to] {
			if d := nw.delays[m.From][to]; d > slowest {
				slowest = d
			}
		}
	}
	return slowest
}

// deliverLocked moves pending messages into inboxes and releases the
// barrier. Caller holds nw.mu.
func (nw *Network) deliverLocked() {
	for to := 0; to < nw.n; to++ {
		msgs := nw.pending[to]
		nw.pending[to] = nil
		sort.SliceStable(msgs, func(a, b int) bool {
			if msgs[a].From != msgs[b].From {
				return msgs[a].From < msgs[b].From
			}
			if msgs[a].Kind != msgs[b].Kind {
				return msgs[a].Kind < msgs[b].Kind
			}
			return msgs[a].Task < msgs[b].Task
		})
		if nw.crashed[to] {
			continue // lost
		}
		nw.inboxes[to] = append(nw.inboxes[to], msgs...)
	}
	nw.arrived = 0
	nw.gen++
	nw.stats.RecordRound()
	if nw.delays != nil {
		var slowest time.Duration
		for to := 0; to < nw.n; to++ {
			for _, m := range nw.inboxes[to] {
				if d := nw.delays[m.From][to]; d > slowest {
					slowest = d
				}
			}
		}
		nw.stats.recordVirtual(slowest)
	}
	nw.cond.Broadcast()
}

// Crash removes the endpoint from all future rounds: its pending and
// future sends are lost, and other agents no longer wait for it. Crash is
// idempotent.
func (ep *Endpoint) Crash() {
	nw := ep.nw
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.crashed[ep.id] {
		return
	}
	nw.crashed[ep.id] = true
	nw.live--
	nw.inboxes[ep.id] = nil
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
	return ep.nw.crashed[ep.id]
}

// Interface conformance: the in-memory endpoint is a Conn.
var _ Conn = (*Endpoint)(nil)
