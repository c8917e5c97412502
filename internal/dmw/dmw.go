// Package dmw implements Distributed MinWork (DMW), the distributed
// scheduling mechanism of Carroll and Grosu: a faithful, fully
// distributed implementation of Nisan and Ronen's MinWork in which the
// agents themselves compute the schedule and payments by running one
// distributed Vickrey auction per task (Section 3 of the paper).
//
// Each agent is a round machine (agentRun.step): it consumes one round's
// deliveries and queues the next round's sends. A Run simulates the n
// agents of an auction by stepping them in lockstep on one goroutine over
// a transport.Round, the round rule every fabric shares (lockstep.go);
// RunAgentSession drives one agent over any transport.Conn, blocking in
// FinishRound. The four protocol phases map onto rounds as follows:
//
//	Phase I   Initialization   — RunConfig carries the published
//	                             parameters (group, pseudonyms, W, c).
//	Phase II  Bidding          — round 1: shares (p2p) + commitments.
//	Phase III Allocating Tasks — round 2: Lambda/Psi; round 3+:
//	                             disclosures (with replacement rounds);
//	                             one round for the second-price pairs.
//	Phase IV  Payments         — one session-wide round of payment
//	                             claims, settled by unanimity.
//
// The m auctions are parallel and independent, exactly as the paper
// frames MinWork ("a set of parallel and independent Vickrey auctions");
// each runs on its own fabric whose statistics are merged, up to
// RunConfig.Parallelism of them at once.
package dmw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/group"
	"dmw/internal/mechanism"
	"dmw/internal/obs"
	"dmw/internal/payment"
	"dmw/internal/sched"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

// RunConfig describes one execution of the distributed mechanism.
type RunConfig struct {
	// Params are the published cryptographic parameters (Phase I).
	Params *group.Params
	// Group, when non-nil, supplies a pre-built group for Params whose
	// fixed-base tables and validation are reused across runs: a
	// long-running service (cmd/dmwd) amortizes the expensive
	// ProbablyPrime checks and table construction over many jobs.
	// It must have been built from parameters equal to Params
	// (group.SharedFor pairs with group.ParamsFor); Validate enforces
	// the match. When nil, Run builds a fresh group.
	Group *group.Group
	// Bid is the published bid-encoding configuration: W, c, n.
	Bid bidcode.Config
	// TrueBids[i][j] is agent i's true (already discretized) value for
	// task j; every entry must be in Bid.W.
	TrueBids [][]int
	// Strategies[i] is agent i's strategy; nil means the suggested
	// strategy. A nil or short slice defaults everyone to suggested.
	Strategies []*strategy.Hooks
	// Seed makes the run reproducible: each agent draws its polynomial
	// coefficients in each auction from a ChaCha8 stream keyed by
	// (Seed, agent, task).
	Seed int64
	// Parallelism bounds the number of concurrently running auctions;
	// 0 means GOMAXPROCS.
	Parallelism int
	// CountOps attaches per-agent group-operation counters (Theorem 12
	// accounting).
	CountOps bool
	// Record captures the published values of every auction into
	// Result.Transcript for offline verification (package audit).
	Record bool
	// EchoVerification appends a digest-exchange round after every round
	// that carries published values, hardening the run against an
	// equivocating broadcast medium (see echo.go for the threat model).
	EchoVerification bool
	// Delays, when non-nil, installs a per-link one-way latency matrix
	// for the virtual-clock model; Result.Stats.VirtualTime() then
	// reports the simulated end-to-end time of the slowest auction
	// chain (auctions are parallel).
	Delays [][]time.Duration
	// RealTimeDelays upgrades Delays from virtual-clock accounting to
	// wall-clock WAN emulation: every round barrier actually waits for
	// the round's slowest in-flight message, so the run takes (and
	// measures) the end-to-end time real agents separated by those
	// links would take. Requires Delays.
	RealTimeDelays bool
	// Trace, when non-nil, records protocol spans (per-auction spans
	// with per-phase children, plus init and settlement segments) into
	// the recorder. Nil — the default, and what every benchmark uses —
	// keeps the run allocation-free of tracing work.
	Trace *obs.Recorder
	// TraceParent parents every recorded span (the server passes the
	// job's root span); 0 roots them at the trace top level.
	TraceParent obs.SpanID
}

// Tasks returns m.
func (c *RunConfig) Tasks() int {
	if len(c.TrueBids) == 0 {
		return 0
	}
	return len(c.TrueBids[0])
}

// Validate checks the configuration's coherence.
func (c *RunConfig) Validate() error {
	if c.Params == nil {
		return errors.New("dmw: nil group parameters")
	}
	if c.Group != nil {
		// A pre-built group was validated at construction; only check it
		// actually matches the published parameters, skipping the
		// expensive primality re-checks on the hot path.
		if !c.Group.Params().Equal(c.Params) {
			return errors.New("dmw: Group was built from different parameters than Params")
		}
	} else if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Bid.Validate(); err != nil {
		return err
	}
	if len(c.TrueBids) != c.Bid.N {
		return fmt.Errorf("dmw: %d bid rows for %d agents", len(c.TrueBids), c.Bid.N)
	}
	m := c.Tasks()
	if m == 0 {
		return errors.New("dmw: no tasks")
	}
	for i, row := range c.TrueBids {
		if len(row) != m {
			return fmt.Errorf("dmw: agent %d has %d bids, want %d", i, len(row), m)
		}
		for j, y := range row {
			if !c.Bid.Contains(y) {
				return fmt.Errorf("dmw: TrueBids[%d][%d] = %d not in W", i, j, y)
			}
		}
	}
	if len(c.Strategies) != 0 && len(c.Strategies) != c.Bid.N {
		return fmt.Errorf("dmw: %d strategies for %d agents", len(c.Strategies), c.Bid.N)
	}
	if c.Delays != nil && len(c.Delays) != c.Bid.N {
		return fmt.Errorf("dmw: delay matrix has %d rows for %d agents", len(c.Delays), c.Bid.N)
	}
	for i, row := range c.Delays {
		if len(row) != c.Bid.N {
			return fmt.Errorf("dmw: delay row %d has %d entries for %d agents", i, len(row), c.Bid.N)
		}
	}
	if c.RealTimeDelays && c.Delays == nil {
		return errors.New("dmw: RealTimeDelays requires a Delays matrix")
	}
	return nil
}

func (c *RunConfig) strategyFor(i int) *strategy.Hooks {
	if i < len(c.Strategies) && c.Strategies[i] != nil {
		return c.Strategies[i]
	}
	return suggested
}

// Result is the outcome of one distributed mechanism execution.
type Result struct {
	// Outcome assembles the consensus schedule, issued payments, and
	// per-task prices in the centralized mechanism's format, enabling
	// direct comparison with MinWork (experiment F1).
	Outcome *mechanism.Outcome
	// Auctions holds the consensus per-task auction outcomes.
	Auctions []AuctionOutcome
	// Utilities[i] is agent i's realized utility against its true
	// values, with voided executions counted as zero.
	Utilities []int64
	// Settlement is the payment infrastructure's Phase IV decision.
	Settlement *payment.Settlement
	// Stats aggregates communication over all auctions and the payment
	// round.
	Stats *transport.Stats
	// AgentOps[i] counts agent i's group operations when
	// RunConfig.CountOps is set; nil otherwise.
	AgentOps []*group.Counter
	// RoundLogs[j] is a narrative of auction j's rounds from agent 0's
	// perspective (experiment F2 checks it against Fig. 2).
	RoundLogs [][]string
	// Transcript holds the published record of the run when
	// RunConfig.Record is set; nil otherwise.
	Transcript *Transcript
	// Phases partitions the run's wall clock into the five segments of
	// PhaseNames; the durations sum to the run duration exactly. Always
	// populated (the server's dmwd_phase_seconds histograms feed from
	// it on every job, traced or not).
	Phases []PhaseTiming

	// views[i][j] is agent i's own view of auction j.
	views [][]*AuctionOutcome
}

// Run executes the distributed mechanism.
func Run(cfg RunConfig) (*Result, error) {
	t0 := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, m := cfg.Bid.N, cfg.Tasks()
	g := cfg.Group
	if g == nil {
		var err error
		g, err = group.New(cfg.Params)
		if err != nil {
			return nil, err
		}
	}
	// Phase I's public data, from the group's shared table.
	nodes, err := g.Scalars().Nodes(cfg.Bid.N, cfg.Bid.Sigma())
	if err != nil {
		return nil, err
	}
	resolver := commit.ResolverOver(cfg.Bid.DegreeCandidates(), nodes)

	var counters []*group.Counter
	if cfg.CountOps {
		counters = make([]*group.Counter, n)
		for i := range counters {
			counters[i] = &group.Counter{}
		}
	}

	stats := &transport.Stats{}
	// viewsByAgent[i][j] points at outcomes[i*m+j], agent i's view of
	// auction j, copied out of the auction's agent state.
	viewsByAgent := make([][]*AuctionOutcome, n)
	outcomes, views := make([]AuctionOutcome, n*m), make([]*AuctionOutcome, n*m)
	for i := range views {
		views[i] = &outcomes[i]
	}
	for i := range viewsByAgent {
		viewsByAgent[i] = take(&views, m)
	}
	roundLogs := make([][]string, m)
	var transcripts []*AuctionTranscript
	if cfg.Record {
		transcripts = make([]*AuctionTranscript, m)
		for j := range transcripts {
			transcripts[j] = newAuctionTranscript(j, n)
		}
	}

	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Phase I ends here: everything above is validation and shared
	// precomputation. The clock's epoch doubles as the bidding start.
	tInit := time.Now()
	clock := &phaseClock{epoch: tInit}
	cfg.Trace.Record(PhaseInit, cfg.TraceParent, t0, tInit, obs.Attr{Key: "phase", Value: "I"})

	var (
		errMu  sync.Mutex
		runErr error
	)
	// auction runs task's auction with all n agents stepped in lockstep
	// on the calling goroutine.
	auction := func(task int) {
		asp := cfg.Trace.Start("auction", cfg.TraceParent, obs.Int("task", task))
		defer asp.End()
		env := &auctionEnv{
			task:     task,
			n:        n,
			cfg:      cfg.Bid,
			alphas:   nodes.Alphas,
			powers:   nodes.Powers,
			resolver: resolver,
			echo:     cfg.EchoVerification,
			clock:    clock,
		}
		if counters == nil { // metering must see each agent's own work
			env.public = new(auctionPublic)
		}
		ls := newLockstep(n, cfg.Delays, cfg.RealTimeDelays)
		agents := make([]agentRun, n)
		for i := range agents {
			ag := g
			if counters != nil {
				ag = g.WithCounter(counters[i])
			}
			// Agent 0 alone records, traces and keeps its round log.
			var (
				rec *AuctionTranscript
				tr  *auctionTracer
			)
			if transcripts != nil && i == 0 {
				rec = transcripts[task]
			}
			if cfg.Trace != nil && i == 0 {
				tr = &auctionTracer{rec: cfg.Trace, parent: asp.ID()}
			}
			agents[i].init(env, i, ag, &ls.ports[i], cfg.strategyFor(i), cfg.TrueBids[i][task], rec, tr, i == 0)
			agents[i].seed(cfg.Seed)
		}
		carve(g, agents, n)
		err := ls.run(agents, g)
		stats.Add(&ls.Tally)
		for i := range agents {
			*viewsByAgent[i][task] = agents[i].view
		}
		roundLogs[task] = agents[0].roundLog
		if err != nil {
			errMu.Lock()
			if runErr == nil {
				runErr = err
			}
			errMu.Unlock()
		}
		if v := agents[0].view; v.Aborted {
			asp.SetAttr("aborted", v.AbortReason)
		} else {
			asp.SetAttr("winner", strconv.Itoa(v.Winner))
		}
	}
	// The m auctions are independent: min(par, m) workers, the caller
	// among them, take tasks in turn.
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		for task := int(next.Add(1) - 1); task < m; task = int(next.Add(1) - 1) {
			auction(task)
		}
	}
	for w := 1; w < min(par, m); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	// Consensus per auction: all non-crashed views must agree.
	consensus := make([]AuctionOutcome, m)
	for j := 0; j < m; j++ {
		var ref *AuctionOutcome
		diverged := false
		for i := 0; i < n; i++ {
			v := viewsByAgent[i][j]
			if v.AbortReason == "crashed" {
				continue
			}
			if ref == nil {
				ref = v
			} else if !ref.sameDecision(v) {
				diverged = true
			}
		}
		switch {
		case ref == nil:
			consensus[j] = AuctionOutcome{Task: j, Aborted: true, AbortReason: "all agents crashed", Winner: -1}
		case diverged:
			consensus[j] = AuctionOutcome{Task: j, Aborted: true, AbortReason: "view divergence", Winner: -1}
		default:
			consensus[j] = *ref
		}
	}

	// Phase IV: payment claims, one session-wide round.
	tAlloc := time.Now()
	ssp := cfg.Trace.Start(PhaseSettlement, cfg.TraceParent, obs.Attr{Key: "phase", Value: "IV"})
	settlement, claims, err := settlePayments(cfg, viewsByAgent, stats)
	ssp.End()
	if err != nil {
		return nil, err
	}
	tSettle := time.Now()

	res := &Result{
		Auctions:   consensus,
		Settlement: settlement,
		Stats:      stats,
		AgentOps:   counters,
		RoundLogs:  roundLogs,
		views:      viewsByAgent,
	}
	if transcripts != nil {
		tr := &Transcript{Bid: cfg.Bid, Auctions: transcripts, Claims: claims}
		for j := range transcripts {
			transcripts[j].Claimed = consensus[j]
		}
		res.Transcript = tr
	}
	res.assembleOutcome(cfg)

	// Partition the run's wall clock into the five phase segments. The
	// segments are disjoint and cover [t0, now] exactly, so their sum
	// equals the run duration (the phase-histogram acceptance test
	// pins this against the server's end-to-end job latency).
	bidEnd := clock.biddingEnd(tInit, tAlloc)
	res.Phases = []PhaseTiming{
		{Phase: PhaseInit, Duration: tInit.Sub(t0)},
		{Phase: PhaseBidding, Duration: bidEnd.Sub(tInit)},
		{Phase: PhaseAllocation, Duration: tAlloc.Sub(bidEnd)},
		{Phase: PhaseSettlement, Duration: tSettle.Sub(tAlloc)},
		{Phase: PhaseFinalize, Duration: time.Since(tSettle)},
	}
	return res, nil
}

// settlePayments runs the Phase IV claim round, one lockstep round over
// the n agents, and applies the unanimity rule. Claims are in agent
// order.
func settlePayments(cfg RunConfig, viewsByAgent [][]*AuctionOutcome, stats *transport.Stats) (*payment.Settlement, []payment.Claim, error) {
	n := cfg.Bid.N
	// Under wall-clock WAN emulation the claim round waits like every
	// other round. (Virtual-clock accounting is deliberately left as
	// before: the latency experiments model Phase IV as piggybacked.)
	var delays [][]time.Duration
	if cfg.RealTimeDelays {
		delays = cfg.Delays
	}
	ls := newLockstep(n, delays, cfg.RealTimeDelays)
	for i := 0; i < n; i++ {
		if crashed(viewsByAgent[i]) {
			ls.Crash(i)
		}
	}
	claims := make([]payment.Claim, 0, n)
	payments, sent := make([]int64, n*n), make([]PaymentClaimPayload, n)
	live := false
	for i := 0; i < n; i++ {
		if ls.Crashed(i) {
			continue
		}
		live = true
		hooks := cfg.strategyFor(i)
		p := claimFromViews(viewsByAgent[i], take(&payments, n))
		if hooks.TamperPaymentClaim != nil {
			hooks.TamperPaymentClaim(p)
		}
		if !hooks.OmitPaymentClaim {
			sent[i].Payments = p
			ls.ports[i].Broadcast(transport.KindPaymentClaim, -1, &sent[i])
			claims = append(claims, payment.Claim{From: i, Payments: p})
		}
	}
	if live {
		ls.deliver()
	}
	stats.Add(&ls.Tally)

	if len(claims) == 0 {
		// Nobody claimed (e.g. everyone crashed): nothing is dispensed.
		return &payment.Settlement{Issued: make([]int64, n), Agreed: make([]bool, n)}, nil, nil
	}
	st, err := payment.Settle(claims, n)
	return st, claims, err
}

func crashed(views []*AuctionOutcome) bool {
	for _, v := range views {
		if v != nil && v.AbortReason == "crashed" {
			return true
		}
	}
	return false
}

// claimFromViews writes into p, one entry per agent, the payment vector
// an agent derives from its own auction views: P_i = sum of second prices
// of the tasks i won. It returns p.
func claimFromViews(views []*AuctionOutcome, p []int64) []int64 {
	n := len(p)
	for _, v := range views {
		if v == nil || v.Aborted || v.Winner < 0 || v.Winner >= n {
			continue
		}
		p[v.Winner] += int64(v.SecondPrice)
	}
	return p
}

// assembleOutcome builds the mechanism.Outcome and utilities from the
// consensus auctions and the payment settlement. An agent whose payment
// was disputed does not execute its tasks (its assignments are voided),
// so a suggested-strategy agent never realizes negative utility.
func (r *Result) assembleOutcome(cfg RunConfig) {
	n, m := cfg.Bid.N, cfg.Tasks()
	out := &mechanism.Outcome{
		Schedule:    sched.NewSchedule(m),
		Payments:    make([]int64, n),
		FirstPrice:  make([]int64, m),
		SecondPrice: make([]int64, m),
	}
	copy(out.Payments, r.Settlement.Issued)
	for j, a := range r.Auctions {
		if a.Aborted || a.Winner < 0 {
			continue
		}
		out.FirstPrice[j] = int64(a.FirstPrice)
		out.SecondPrice[j] = int64(a.SecondPrice)
		if r.Settlement.Agreed[a.Winner] {
			out.Schedule.Agent[j] = a.Winner
		}
	}
	r.Outcome = out

	r.Utilities = make([]int64, n)
	for i := 0; i < n; i++ {
		if !r.Settlement.Agreed[i] {
			continue // voided: no execution, no payment -> 0
		}
		u := r.Settlement.Issued[i]
		for j, a := range r.Auctions {
			if !a.Aborted && a.Winner == i {
				u -= int64(cfg.TrueBids[i][j])
			}
		}
		r.Utilities[i] = u
	}
}

// subSeed derives a per-(agent, task) seed from the master seed with a
// splitmix64-style mix, so results are independent of auction scheduling
// order.
func subSeed(master int64, agent, task int) int64 {
	z := uint64(master)
	z += 0x9e3779b97f4a7c15 * uint64(agent+1)
	z += 0xbf58476d1ce4e5b9 * uint64(task+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z)
}

// seededStream is an agent's seeded coefficient source for one auction:
// a ChaCha8 stream keyed by subSeed, read as bytes. Keying costs one
// block of ChaCha8, not the 607-word seeding of a math/rand source, and
// the stream lives inside the agent, so it allocates nothing. Read is
// Uint64 words, little-endian, through an 8-byte buffer (the ChaCha8.Read
// of Go 1.23 does the same; this module builds with Go 1.22).
type seededStream struct {
	c   rand.ChaCha8
	buf [8]byte
	n   int // unread bytes at the end of buf
}

func (s *seededStream) seed(master int64, agent, task int) {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(subSeed(master, agent, task)))
	s.c.Seed(key)
	s.n = 0
}

// Read fills p from the stream; it never fails.
func (s *seededStream) Read(p []byte) (int, error) {
	for i := 0; i < len(p); {
		if s.n == 0 {
			binary.LittleEndian.PutUint64(s.buf[:], s.c.Uint64())
			s.n = len(s.buf)
		}
		k := copy(p[i:], s.buf[len(s.buf)-s.n:])
		s.n -= k
		i += k
	}
	return len(p), nil
}
