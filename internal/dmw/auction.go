package dmw

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strconv"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/obs"
	"dmw/internal/strategy"
	"dmw/internal/transport"
)

// AuctionOutcome is one agent's final view of a task's distributed
// Vickrey auction. Honest executions produce identical views across all
// agents; the session cross-checks this.
type AuctionOutcome struct {
	Task        int
	Aborted     bool
	AbortReason string
	// Winner is the winning agent index, or -1 when aborted.
	Winner int
	// FirstPrice is the lowest bid y*, SecondPrice the second-lowest
	// y** (the winner's payment for this task).
	FirstPrice, SecondPrice int
}

func (v *AuctionOutcome) sameDecision(o *AuctionOutcome) bool {
	if v.Aborted || o.Aborted {
		return v.Aborted == o.Aborted
	}
	return v.Winner == o.Winner && v.FirstPrice == o.FirstPrice && v.SecondPrice == o.SecondPrice
}

// auctionEnv is the read-only environment shared by the n agents of one
// auction.
type auctionEnv struct {
	task   int
	n      int
	cfg    bidcode.Config
	alphas []*big.Int
	// powers[k] = [alpha_k^1 .. alpha_k^sigma], precomputed once.
	powers [][]*big.Int
	// resolver runs equation (12); built once per run.
	resolver *commit.Resolver
	// echo enables the digest-exchange hardening of echo.go.
	echo bool
	// public does this task's public work once for all its agents (see
	// auctionPublic); nil when per-agent ops are metered and in sessions.
	// When set, the agents also hand their share checks to the driver
	// (yieldVerify), which verifies the round's in one merged pass.
	public *auctionPublic
	// clock, when non-nil, receives the round-1 delivery of every agent
	// so the run-level bidding phase ends with its slowest auction (see
	// phaseClock).
	clock *phaseClock
}

// sender is the half of transport.Conn the engine uses: a driver owns the
// round boundaries (FinishRound), the agent only sends and, on a detected
// equivocation, crashes.
type sender interface {
	Send(to int, kind transport.Kind, task int, payload any) error
	Broadcast(kind transport.Kind, task int, payload any) error
	Crash()
}

// yield tells a driver what an agent's step left it waiting for.
type yield int

const (
	// yieldNext is internal to step: run the next state now.
	yieldNext yield = iota
	// yieldRound: the step queued its sends for the current round; finish
	// the round and step again with the round's deliveries.
	yieldRound
	// yieldVerify: the step left its share-verification request in
	// verifyReq (only when env.public is set); put the verdict in
	// verifyErr and step again, in the same round, with no deliveries.
	yieldVerify
	// yieldDone: the auction is over for this agent; view holds its
	// outcome.
	yieldDone
)

// state is the agent's position in the auction's rounds. Each state that
// ends a round yields; the state after it receives that round's
// deliveries.
type state int

const (
	stBid         state = iota // II.1-II.3: send shares, publish commitments
	stBidding                  // round 1 delivered
	stVerify                   // III.1: verify shares and commitments
	stPublish                  // III.2: publish Lambda/Psi or abort
	stAllocating               // round 2 delivered
	stResolve                  // check Lambda/Psi, resolve y* (eq. (12))
	stAbortRound               // the announced abort delivered
	stAborted                  // end on the announced abort
	stDisclose                 // III.3: designate and disclose
	stExhausted                // disclosure sources exhausted, abort delivered
	stDisclosed                // disclosure round delivered
	stValidate                 // check disclosures (eq. (13))
	stSecondPrice              // second-price round delivered
	stSettle                   // check the pairs, resolve y** (III.4)
	stEcho                     // digest round delivered (echo.go)
	stDone
)

// agentRun is the per-agent state of one auction: a round machine that a
// driver advances one step per round (lockstep.go for Run, runBlocking
// for sessions).
type agentRun struct {
	env   *auctionEnv
	me    int
	g     *group.Group
	f     *field.Field
	ep    sender
	hooks *strategy.Hooks
	// rng is the coefficient source: &stream, or nil for crypto/rand.
	rng    io.Reader
	stream seededStream

	state state
	view  AuctionOutcome // set when done

	truthBid int
	bid      int

	enc     *bidcode.EncodedBid
	myComms *commit.Commitments // as published (possibly tampered)

	shares  []*bidcode.Share      // shares[k] = share received from k (own at me)
	dealt   []SharePayload        // the shares this agent sends, dealt[k] to k
	comms   []*commit.Commitments // published commitments per agent
	lambdas []*big.Int            // published Lambda per agent
	psis    []*big.Int            // published Psi per agent

	// own holds this agent's Lambda, Psi and winner-excluded pair, lp and
	// sp the payloads that publish them.
	own  []big.Int
	sums [2]big.Int
	// scratch is the auction's: its agents step on one goroutine (in a
	// session, the agent is alone), so they share its grown words.
	scratch *field.Scratch
	lp      LambdaPsiPayload
	sp      SecondPricePayload

	abortSeen   bool
	abortReason string
	// keepLog is set for the one agent whose round log the caller keeps;
	// every other agent skips formatting it.
	keepLog  bool
	roundLog []string

	// rec, when non-nil, captures the published values for offline
	// verification (package audit). Only one agent records per auction.
	rec *AuctionTranscript

	// tr, when non-nil, records protocol phase spans. Like rec, only
	// one agent traces per auction; a nil tracer absorbs every call.
	// span is the open phase span (phases do not overlap).
	tr   *auctionTracer
	span *obs.ActiveSpan

	// verifyReq and verifyErr carry a yieldVerify to the driver and back.
	verifyReq commit.Request
	verifyErr error

	// gammas checks equations (11) and (13) against comms, folding the
	// column products both eq. (11) passes and eq. (13) read once. It is
	// built on the first verdict this agent computes (see table).
	gammas *commit.GammaTable

	// Winner identification (step III.3) across its disclosure rounds:
	// valid[k] is discloser k's F vector once it passed equation (13),
	// disclosed[k] what k disclosed in the current round.
	firstPrice   int
	needed       int
	round        int
	designated   int
	attempted    []bool
	valid        [][]*big.Int
	nValid       int
	disclosed    [][]*big.Int
	disclosers   []int
	rows         [][]*big.Int // rows[i] = valid[disclosers[i]]
	myDisclosure []*big.Int
	winner       int
	barLambda    []*big.Int
	barPsi       []*big.Int
	items        []commit.BatchItem // the share checks of step III.1

	// Echo verification (echo.go): this agent's publications of the
	// current round, the digest it broadcast over the round, the round's
	// deliveries held for the state after the digest round, and that
	// state.
	published []transport.Message
	digest    [sha256.Size]byte
	held      []transport.Message
	afterEcho state
}

// carve gives each of an auction's agents (n in a Run, one in a session)
// its rows of one slab per kind of agent state, and one scratch for them
// all, so an auction allocates once per kind of state, not once per
// agent. Call it after init.
func carve(g *group.Group, agents []agentRun, n int) {
	k := len(agents) * n
	scratch := new(field.Scratch)
	shares, dealt, comms := make([]*bidcode.Share, k), make([]SharePayload, k), make([]*commit.Commitments, k)
	values, vectors, own := make([]*big.Int, 4*k), make([][]*big.Int, 3*k), g.Slab(4*len(agents))
	ints, flags, items := make([]int, k), make([]bool, k), make([]commit.BatchItem, k)
	for i := range agents {
		a := &agents[i]
		a.shares, a.dealt, a.comms, a.own = take(&shares, n), take(&dealt, n), take(&comms, n), take(&own, 4)
		a.lambdas, a.psis, a.barLambda, a.barPsi = take(&values, n), take(&values, n), take(&values, n), take(&values, n)
		a.valid, a.disclosed, a.rows = take(&vectors, n), take(&vectors, n), take(&vectors, n)
		a.disclosers, a.attempted, a.items = take(&ints, n), take(&flags, n), take(&items, n)
		a.scratch = scratch
	}
}

// take removes the first w elements of *s and returns them as a row with
// capacity w.
func take[T any](s *[]T, w int) []T {
	row := (*s)[:w:w]
	*s = (*s)[w:]
	return row
}

// suggested is the strategy of an agent that was given none.
var suggested = &strategy.Hooks{}

// init prepares agent me for one auction; its first step bids, once carve
// has given it its state. The round log is kept only when keepLog is set.
// The agent draws from crypto/rand unless seed gives it a seeded stream.
func (a *agentRun) init(env *auctionEnv, me int, g *group.Group, ep sender,
	hooks *strategy.Hooks, truthBid int, rec *AuctionTranscript,
	tr *auctionTracer, keepLog bool) {

	if hooks == nil {
		hooks = suggested
	}
	*a = agentRun{
		rec:      rec,
		tr:       tr,
		env:      env,
		me:       me,
		g:        g,
		f:        g.Scalars(),
		ep:       ep,
		hooks:    hooks,
		truthBid: truthBid,
		keepLog:  keepLog,
	}
}

// seed makes the agent draw from its seeded stream for this auction.
func (a *agentRun) seed(master int64) {
	a.stream.seed(master, a.me, a.env.task)
	a.rng = &a.stream
}

// runBlocking is the blocking driver: it plays the agent over conn, whose
// FinishRound ends each round. Sessions share no public work, so the
// machine verifies shares itself and never yields for a verdict here.
func (a *agentRun) runBlocking(conn transport.Conn) (AuctionOutcome, error) {
	var inbox []transport.Message
	for {
		y, err := a.step(inbox)
		if err != nil {
			return AuctionOutcome{}, err
		}
		if y == yieldDone {
			return a.view, nil
		}
		inbox = conn.FinishRound()
	}
}

// step advances the agent through one round: it consumes the deliveries
// of the round its last step ended (nil before the first round and after
// a yieldVerify), queues this round's sends through ep, and reports what
// it waits for. The agent keeps its rounds aligned with every other
// agent's (see package strategy), so a driver advances all of them
// together.
func (a *agentRun) step(inbox []transport.Message) (yield, error) {
	for {
		var (
			y   yield
			err error
		)
		switch a.state {
		case stBid:
			y, err = a.stepBid()
		case stBidding:
			a.env.clock.markBiddingEnd()
			a.collect(inbox)
			a.logf("round 1 (bidding): sent shares and commitments")
			a.rec.recordBidding(a)
			y, err = a.echo(inbox, stVerify)
		case stVerify:
			y = a.stepVerify()
		case stPublish:
			y, err = a.stepPublish()
		case stAllocating:
			a.collect(inbox)
			a.logf("round 2 (allocating): published Lambda/Psi")
			a.rec.recordLambdaPsi(a)
			y, err = a.echo(inbox, stResolve)
		case stResolve:
			y, err = a.stepResolve()
		case stAbortRound:
			a.collect(inbox)
			a.logf("round 3 (allocating): broadcast abort: %s", a.abortReason)
			// Keep round-aligned with agents that proceeded to a
			// disclosure round and will echo it.
			y, err = a.echo(inbox, stAborted)
		case stAborted:
			y = a.finish(a.aborted(a.abortReason))
		case stDisclose:
			y, err = a.stepDisclose()
		case stExhausted:
			a.collect(inbox)
			a.logf("round %d (allocating): abort: %s", a.round, a.abortReason)
			y = a.finish(a.aborted(a.abortReason))
		case stDisclosed:
			a.logf("round %d (allocating): disclosure round, %d designated", a.round, a.designated)
			a.round++
			y, err = a.echo(inbox, stValidate)
		case stValidate:
			y = a.stepValidate(inbox)
		case stSecondPrice:
			a.logf("round (allocating): published second-price pair excluding winner %d", a.winner)
			y, err = a.echo(inbox, stSettle)
		case stSettle:
			y = a.stepSettle(inbox)
		case stEcho:
			y, inbox = a.stepEcho(inbox)
		default:
			return yieldDone, nil
		}
		if err != nil {
			a.endSpan()
			return 0, err
		}
		if y != yieldNext {
			return y, nil
		}
	}
}

// finish ends the auction for this agent with view.
func (a *agentRun) finish(view AuctionOutcome) yield {
	a.endSpan()
	a.view = view
	a.state = stDone
	return yieldDone
}

// startSpan ends the open phase span and opens the next one.
func (a *agentRun) startSpan(name, phase string, attrs ...obs.Attr) {
	a.endSpan()
	a.span = a.tr.phaseSpan(name, phase, attrs...)
}

func (a *agentRun) endSpan() {
	a.span.End()
	a.span = nil
}

// broadcast publishes a payload, recording it for echo verification.
func (a *agentRun) broadcast(kind transport.Kind, payload any) error {
	if a.env.echo {
		a.published = append(a.published, transport.Message{
			From: a.me, To: a.me, Kind: kind, Task: a.env.task, Payload: payload,
		})
	}
	return a.ep.Broadcast(kind, a.env.task, payload)
}

func (a *agentRun) aborted(reason string) AuctionOutcome {
	return AuctionOutcome{
		Task: a.env.task, Aborted: true, AbortReason: reason, Winner: -1,
	}
}

func (a *agentRun) logf(format string, args ...any) {
	if a.keepLog {
		a.roundLog = append(a.roundLog, fmt.Sprintf(format, args...))
	}
}

// stepBid runs Phase II (round 1): shares (p2p) and commitments.
func (a *agentRun) stepBid() (yield, error) {
	if a.hooks.CrashBeforeAuction != nil && a.hooks.CrashBeforeAuction(a.env.task) {
		a.ep.Crash()
		return a.finish(a.aborted("crashed")), nil
	}
	a.startSpan("bidding", "II")
	if err := a.bid1(); err != nil {
		return 0, err
	}
	a.state = stBidding
	return yieldRound, nil
}

// bid1 executes the agent's Bidding phase actions (steps II.1-II.3).
func (a *agentRun) bid1() error {
	env := a.env
	a.bid = a.truthBid
	if a.hooks.ChooseBid != nil {
		a.bid = a.hooks.ChooseBid(env.task, a.truthBid)
	}
	enc, err := bidcode.Encode(env.cfg, a.bid, a.f, a.rng)
	if err != nil {
		return fmt.Errorf("dmw: agent %d encoding bid: %w", a.me, err)
	}
	a.enc = enc
	comms, err := commit.New(a.g, enc, env.cfg.Sigma())
	if err != nil {
		return fmt.Errorf("dmw: agent %d committing: %w", a.me, err)
	}
	a.myComms = comms
	if a.hooks.TamperCommitments != nil {
		a.myComms = comms.Clone()
		a.hooks.TamperCommitments(env.task, a.myComms)
	}

	shares := enc.SharesWith(env.alphas, a.scratch)
	for to := 0; to < env.n; to++ {
		if to == a.me {
			continue
		}
		if a.hooks.OmitShareTo != nil && a.hooks.OmitShareTo(env.task, to) {
			continue
		}
		p := &a.dealt[to]
		p.Share = shares[to]
		if a.hooks.TamperShare != nil {
			p.Share = a.tamperShare(to, p.Share)
		}
		if err := a.ep.Send(to, transport.KindShare, env.task, p); err != nil {
			return err
		}
	}
	// Own share and published commitments go straight into local state.
	a.shares[a.me] = &shares[a.me]
	if a.hooks.OmitCommitments != nil && a.hooks.OmitCommitments(env.task) {
		a.comms[a.me] = nil
	} else {
		a.comms[a.me] = a.myComms
		if err := a.broadcast(transport.KindCommitments, CommitmentsPayload{C: a.myComms}); err != nil {
			return err
		}
	}
	return nil
}

// tamperShare returns what the TamperShare hook makes of a copy of s; only
// a tampering agent moves a share to the heap to hand the hook a pointer.
func (a *agentRun) tamperShare(to int, s bidcode.Share) bidcode.Share {
	s = s.Clone()
	a.hooks.TamperShare(a.env.task, to, &s)
	return s
}

// collect routes one round's deliveries into the agent state.
func (a *agentRun) collect(msgs []transport.Message) {
	for _, m := range msgs {
		if m.Task != a.env.task {
			continue
		}
		switch p := m.Payload.(type) {
		case *SharePayload:
			if a.shares[m.From] == nil {
				a.shares[m.From] = &p.Share
				if a.hooks.ObserveShare != nil {
					a.hooks.ObserveShare(a.env.task, m.From, p.Share.Clone())
				}
			}
		case CommitmentsPayload:
			if a.comms[m.From] == nil {
				a.comms[m.From] = p.C
			}
		case *LambdaPsiPayload:
			if a.lambdas[m.From] == nil {
				a.lambdas[m.From] = p.Lambda
				a.psis[m.From] = p.Psi
			}
		case AbortPayload:
			a.abortSeen = true
		}
	}
}

func (a *agentRun) firstReason(fallback string) string {
	if a.abortReason != "" {
		return a.abortReason
	}
	return fallback
}

// stepVerify performs step III.1 (equations (7)-(9)). Missing data
// always aborts (the agent cannot proceed without it); validity failures
// abort unless the strategy skips verification.
//
// The cryptographic checks run through commit.BatchVerifyShares: one
// random-linear-combination identity over all senders at once, falling
// back to per-sender checks only when the batch rejects — so the happy
// path costs a single multi-exponentiation while abort reasons still
// name the guilty agent with the same message the sequential scan
// produced. In a shared auction the driver runs the check (yieldVerify),
// merged with the other agents' of the round; metered agents and
// sessions check alone.
func (a *agentRun) stepVerify() yield {
	env := a.env
	a.startSpan("commit_verify", "III")
	a.state = stPublish
	items := a.items[:0]
	structuralAbort := ""
	for k := 0; k < env.n; k++ {
		if k == a.me {
			continue
		}
		if a.comms[k] == nil {
			structuralAbort = fmt.Sprintf("missing commitments from agent %d", k)
			break
		}
		if a.shares[k] == nil {
			structuralAbort = fmt.Sprintf("missing share from agent %d", k)
			break
		}
		if err := a.comms[k].Validate(); err != nil || a.comms[k].Sigma() != env.cfg.Sigma() {
			structuralAbort = fmt.Sprintf("malformed commitments from agent %d", k)
			break
		}
		if a.hooks.SkipVerification {
			continue
		}
		items = append(items, commit.BatchItem{Sender: k, C: a.comms[k], S: *a.shares[k]})
	}
	if structuralAbort != "" {
		// Preserve the sequential scan's first-failure order: a share
		// inconsistency at an agent BEFORE the structural failure would
		// have aborted first, so check the already-collected items.
		for _, it := range items {
			if err := it.C.VerifyShare(a.g, env.powers[a.me], it.S); err != nil {
				a.abortReason = fmt.Sprintf("share from agent %d inconsistent: %v", it.Sender, err)
				return yieldNext
			}
		}
		a.abortReason = structuralAbort
		return yieldNext
	}
	if len(items) == 0 {
		return yieldNext
	}
	if env.public != nil {
		a.verifyReq = commit.Request{AlphaPowers: env.powers[a.me], Items: items, Rng: a.rng}
		return yieldVerify
	}
	a.verifyErr = commit.BatchVerifyShares(a.g, env.powers[a.me], items, a.rng)
	return yieldNext
}

// stepPublish turns the share verdict into an abort reason and executes
// step III.2 (equation (10)), or announces the abort.
func (a *agentRun) stepPublish() (yield, error) {
	env := a.env
	if err := a.verifyErr; err != nil {
		var verr *commit.VerifyError
		if errors.As(err, &verr) {
			a.abortReason = fmt.Sprintf("share from agent %d inconsistent: %v", verr.Sender, verr.Err)
		} else {
			a.abortReason = fmt.Sprintf("share verification failed: %v", err)
		}
	}
	a.verifyReq, a.verifyErr = commit.Request{}, nil
	if fa := a.hooks.FalseAbort; a.abortReason == "" && fa != nil && fa(env.task) {
		a.abortReason = "spurious abort raised by strategy"
	}
	a.startSpan("lambda_psi", "III")
	a.state = stAllocating
	if a.abortReason != "" {
		return yieldRound, a.broadcast(transport.KindAbort, AbortPayload{Reason: a.abortReason})
	}
	if a.hooks.OmitLambdaPsi != nil && a.hooks.OmitLambdaPsi(env.task) {
		return yieldRound, nil
	}
	lambda, psi := a.lambdaPsi(-1, &a.own[0], &a.own[1])
	if a.hooks.TamperLambdaPsi != nil {
		a.hooks.TamperLambdaPsi(env.task, lambda, psi)
	}
	a.lambdas[a.me], a.psis[a.me] = lambda, psi
	a.lp = LambdaPsiPayload{Lambda: lambda, Psi: psi}
	return yieldRound, a.broadcast(transport.KindLambdaPsi, &a.lp)
}

// stepResolve runs after round 2. Its checks consume only broadcast data,
// so every agent reaches the same verdict; p2p-independent failures are
// announced in one more round to release lazy verifiers too.
func (a *agentRun) stepResolve() (yield, error) {
	if a.abortSeen || a.abortReason != "" {
		return a.finish(a.aborted(a.firstReason("peer aborted after bidding"))), nil
	}
	reason := a.verifyLambdaPsi()
	firstDeg := -1
	if reason == "" {
		var err error
		firstDeg, err = a.resolveDegree(a.lambdas)
		if err != nil {
			reason = fmt.Sprintf("first-price resolution failed: %v", err)
		}
	}
	a.endSpan()
	if reason != "" {
		a.abortReason = reason
		a.state = stAbortRound
		return yieldRound, a.broadcast(transport.KindAbort, AbortPayload{Reason: reason})
	}
	a.firstPrice = a.env.cfg.Sigma() - firstDeg
	a.logf("resolved first price y* = %d (degree %d)", a.firstPrice, firstDeg)

	a.needed = a.firstPrice + 1
	if a.needed > a.env.n {
		return a.finish(a.aborted(fmt.Sprintf("winner identification needs %d disclosures, have %d agents", a.needed, a.env.n))), nil
	}
	a.round = 3
	a.state = stDisclose
	return yieldNext, nil
}

// lambdaPsi sets lambda and psi to the pair of equation (10) computed from
// the shares this agent holds, Lambda = z1^(sum_k e_k(alpha_me)) and
// Psi = z2^(sum_k h_k(alpha_me)), and returns them. exclude >= 0 leaves
// that agent's shares out of both sums (equation (15), the winner-excluded
// pair).
func (a *agentRun) lambdaPsi(exclude int, lambda, psi *big.Int) (*big.Int, *big.Int) {
	esum, hsum := a.sums[0].SetUint64(0), a.sums[1].SetUint64(0)
	for k, sh := range a.shares {
		if k == exclude || sh == nil {
			continue
		}
		a.f.AddInto(esum, esum, sh.E, a.scratch)
		a.f.AddInto(hsum, hsum, sh.H, a.scratch)
	}
	return a.g.Pow1Into(lambda, esum), a.g.Pow2Into(psi, hsum)
}

// verifyLambdaPsi checks every published pair against equation (11).
// Missing pairs are fatal regardless of laziness; invalid pairs are
// fatal for verifying agents.
func (a *agentRun) verifyLambdaPsi() string {
	env := a.env
	for k := 0; k < env.n; k++ {
		if a.lambdas[k] == nil || a.psis[k] == nil {
			return fmt.Sprintf("missing Lambda/Psi from agent %d", k)
		}
		if a.hooks.SkipVerification {
			continue
		}
		if err := a.checkLambdaPsi(env.public, k, a.lambdas[k], a.psis[k], -1); err != nil {
			return fmt.Sprintf("Lambda/Psi from agent %d inconsistent: %v", k, err)
		}
	}
	return ""
}

// table returns the agent's GammaTable over its commitments. In a shared
// auction only an agent that misses a verdict builds one. a.comms and
// env.powers both hold n entries, so NewGammaTable cannot fail.
func (a *agentRun) table() *commit.GammaTable {
	if a.gammas == nil {
		a.gammas, _ = commit.NewGammaTable(a.g, a.comms, a.env.powers)
	}
	return a.gammas
}

// checkLambdaPsi is equation (11) on agent k's pair, leaving out agent
// exclude, once per key in public.
func (a *agentRun) checkLambdaPsi(public *auctionPublic, k int, lambda, psi *big.Int, exclude int) error {
	return public.check(checkKey{a.comms, k, exclude, lambda, psi, nil}, func() error {
		return a.table().VerifyLambdaPsi(k, lambda, psi, exclude)
	})
}

// resolveDegree runs the distributed degree resolution of equation (12)
// over the published Lambda values, or over the winner-excluded values in
// the second-price step. commit.Resolver bisects the candidate degrees
// instead of scanning them: the probe "the first d+1 pseudonyms
// interpolate Lambda to the identity" is true for every d >= tau once
// equation (11) binds Lambda, and false below tau except with
// probability ~1/q, so O(log |W|) probes find the first true one. The
// auction's agents share each resolution through env.public.
//
// Winner-exclusion contract: in the second-price pass the winner's
// e-share was removed from the SUMS inside the published bar-Lambda
// values by their publishers (equation (15)). The winner's NODE is not
// removed from the resolution: every agent, the winner included, still
// publishes a pair, and the first d+1 pseudonyms are used regardless of
// which agent won, so the arithmetic is identical for both passes.
// TestResolveDegreeSecondPriceSemantics pins this behavior.
func (a *agentRun) resolveDegree(lambdas []*big.Int) (int, error) {
	return a.env.public.resolve(a.g, a.env.resolver, lambdas)
}

// stepDisclose runs one round of the dynamic disclosure loop of step
// III.3: the first y*+1 agents (by pseudonym order) disclose the f-shares
// they received; invalid or missing disclosures designate replacement
// disclosers in follow-up rounds ("any of the other properly functioning
// agents can transmit their shares", Theorem 8's proof). Once y*+1 valid
// disclosures exist, the winner is the smallest pseudonym whose
// f-polynomial interpolates to zero (equation (14)).
func (a *agentRun) stepDisclose() (yield, error) {
	env := a.env
	if a.nValid >= a.needed {
		return a.stepWinner()
	}
	a.startSpan("disclosure", "III")
	a.span.SetAttr("round", strconv.Itoa(a.round))
	// Deterministic designation: the first (needed - nValid) pseudonyms
	// that have not yet attempted.
	want := a.needed - a.nValid
	a.designated = 0
	mine := false
	for k := 0; k < env.n && a.designated < want; k++ {
		if !a.attempted[k] {
			a.attempted[k] = true
			a.designated++
			mine = mine || k == a.me
		}
	}
	if a.designated < want {
		// Announce and abort: disclosure sources exhausted.
		a.abortReason = "not enough valid disclosures for winner identification"
		a.state = stExhausted
		return yieldRound, a.broadcast(transport.KindAbort, AbortPayload{Reason: a.abortReason})
	}
	a.myDisclosure = nil
	a.state = stDisclosed
	if (mine || a.hooks.AlwaysDisclose) && !(a.hooks.OmitDisclosure != nil && a.hooks.OmitDisclosure(env.task)) {
		a.myDisclosure = a.buildDisclosure()
		if a.hooks.TamperDisclosure != nil {
			a.hooks.TamperDisclosure(env.task, a.myDisclosure)
		}
		return yieldRound, a.broadcast(transport.KindDisclosure, &DisclosurePayload{F: a.myDisclosure})
	}
	return yieldRound, nil
}

// stepValidate gathers a disclosure round's disclosures, own included, and
// keeps the valid ones.
func (a *agentRun) stepValidate(msgs []transport.Message) yield {
	env := a.env
	got := a.disclosed
	clear(got)
	for _, m := range msgs {
		if m.Task != env.task {
			continue
		}
		switch p := m.Payload.(type) {
		case *DisclosurePayload:
			if got[m.From] == nil {
				got[m.From] = p.F
			}
		case AbortPayload:
			a.abortSeen = true
		}
	}
	if a.myDisclosure != nil {
		got[a.me] = a.myDisclosure
	}
	if a.abortSeen {
		return a.finish(a.aborted("peer aborted during winner identification"))
	}
	// Validate via equation (13). This check is part of the shared
	// control flow, so every agent (lazy or not) computes it; see
	// package strategy.
	for k, f := range got {
		if f == nil || a.valid[k] != nil {
			continue
		}
		if len(f) != env.n {
			continue
		}
		if err := env.public.check(checkKey{a.comms, k, -1, nil, a.psis[k], f}, func() error {
			return a.table().VerifyDisclosure(k, f, a.psis[k])
		}); err != nil {
			continue
		}
		a.valid[k] = f
		a.nValid++
		a.rec.recordDisclosure(k, f)
	}
	a.endSpan()
	a.state = stDisclose
	return yieldNext
}

// stepWinner names the winner from the y*+1 smallest-pseudonym valid
// disclosers and publishes the winner-excluded pair of step III.4
// (equation (15)).
func (a *agentRun) stepWinner() (yield, error) {
	env := a.env
	disclosers, rows := a.disclosers[:0], a.rows[:0]
	for k, f := range a.valid {
		if f != nil && len(disclosers) < a.needed {
			disclosers, rows = append(disclosers, k), append(rows, f)
		}
	}

	winner, err := env.public.winner(a.f, env.alphas, disclosers, rows)
	if err != nil {
		return a.finish(a.aborted(fmt.Sprintf("winner interpolation failed: %v", err))), nil
	}
	if winner < 0 {
		return a.finish(a.aborted("no agent's f-polynomial matches the first price")), nil
	}
	a.logf("winner identified: agent %d", winner)
	a.winner = winner

	a.startSpan("second_price", "III")
	a.state = stSecondPrice
	if a.hooks.OmitSecondPrice != nil && a.hooks.OmitSecondPrice(env.task) {
		return yieldRound, nil
	}
	lambda, psi := a.lambdaPsi(winner, &a.own[2], &a.own[3])
	if a.hooks.TamperSecondPrice != nil {
		a.hooks.TamperSecondPrice(env.task, lambda, psi)
	}
	a.barLambda[a.me], a.barPsi[a.me] = lambda, psi
	a.sp = SecondPricePayload{Lambda: lambda, Psi: psi}
	return yieldRound, a.broadcast(transport.KindSecondPrice, &a.sp)
}

// buildDisclosure assembles the f-shares this agent received (step
// III.3's disclosure of f_1(alpha_k)..f_n(alpha_k)). They are the shares'
// own values, copied only for a TamperDisclosure hook to write.
func (a *agentRun) buildDisclosure() []*big.Int {
	out := make([]*big.Int, a.env.n)
	for l, sh := range a.shares {
		switch {
		case sh == nil || sh.F == nil:
			out[l] = new(big.Int) // placeholder; fails eq (13)
		case a.hooks.TamperDisclosure != nil:
			out[l] = new(big.Int).Set(sh.F)
		default:
			out[l] = sh.F
		}
	}
	return out
}

// stepSettle finishes step III.4: every agent's winner-excluded pair is
// verified against equation (11) with the winner excluded, and the degree
// resolution re-runs to find y**.
func (a *agentRun) stepSettle(msgs []transport.Message) yield {
	env := a.env
	barLambda, barPsi := a.barLambda, a.barPsi
	for _, m := range msgs {
		if m.Task != env.task {
			continue
		}
		switch p := m.Payload.(type) {
		case *SecondPricePayload:
			if barLambda[m.From] == nil {
				barLambda[m.From], barPsi[m.From] = p.Lambda, p.Psi
			}
		case AbortPayload:
			a.abortSeen = true
		}
	}
	if a.abortSeen {
		return a.finish(a.aborted("peer aborted during second-price resolution"))
	}
	a.rec.recordSecondPrice(barLambda, barPsi)
	// Verify equation (11) excluding the winner; invalidate failing
	// entries so resolution skips... a failing entry among the first
	// d+1 nodes is fatal, matching Theorem 4's analysis. A lazy verifier
	// checks this pass too, but reads no shared verdict.
	public := env.public
	if a.hooks.SkipVerification {
		public = nil
	}
	for k := 0; k < env.n; k++ {
		if barLambda[k] == nil || barPsi[k] == nil {
			barLambda[k] = nil
			continue
		}
		if err := a.checkLambdaPsi(public, k, barLambda[k], barPsi[k], a.winner); err != nil {
			barLambda[k] = nil
		}
	}
	deg, err := a.resolveDegree(barLambda)
	if err != nil {
		return a.finish(a.aborted(fmt.Sprintf("second-price resolution failed: %v", err)))
	}
	secondPrice := env.cfg.Sigma() - deg
	a.endSpan()
	a.logf("resolved second price y** = %d", secondPrice)
	return a.finish(AuctionOutcome{
		Task:        env.task,
		Winner:      a.winner,
		FirstPrice:  a.firstPrice,
		SecondPrice: secondPrice,
	})
}
