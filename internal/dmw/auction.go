package dmw

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

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

// auctionEnv is the read-only environment shared by the n agent
// goroutines of one auction.
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
	// verifier, when non-nil, routes round-2 share verification through
	// the fleet-wide coalescer so concurrent auctions (and jobs) share
	// one combined pass. See RunConfig.Verifier.
	verifier *commit.Coalescer
	// gammaCache, when non-nil, shares Gamma_{k,l} evaluations across
	// this task's agents: the values are public (pseudonyms ×
	// broadcast commitments), so only the first agent to need an entry
	// computes it. Nil when per-agent ops are being metered.
	gammaCache *commit.SharedGammaCache
	// resolutions, when non-nil, resolves each published vector once for
	// this task's agents; nil exactly when gammaCache is.
	resolutions *commit.SharedResolutions
	// clock, when non-nil, receives the round-1 barrier crossing of
	// every agent so the run-level bidding phase ends with its slowest
	// auction (see phaseClock).
	clock *phaseClock
}

// agentRun is the per-agent state of one auction.
type agentRun struct {
	env   *auctionEnv
	me    int
	g     *group.Group
	f     *field.Field
	ep    transport.Conn
	hooks *strategy.Hooks
	rng   io.Reader

	truthBid int
	bid      int

	enc     *bidcode.EncodedBid
	myComms *commit.Commitments // as published (possibly tampered)

	shares  []*bidcode.Share      // shares[k] = share received from k (own at me)
	comms   []*commit.Commitments // published commitments per agent
	lambdas []*big.Int            // published Lambda per agent
	psis    []*big.Int            // published Psi per agent

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
	tr *auctionTracer

	// gammas caches the Gamma_{k,l} evaluations shared by the first- and
	// second-price verification passes.
	gammas *commit.GammaTable

	// published buffers this agent's own publications of the current
	// round for echo verification (echo.go).
	published []transport.Message
}

// runAgentAuction executes the full DMW auction for one task from one
// agent's perspective. It always keeps its communication rounds aligned
// with the other agents (see package strategy). The round log it returns
// is nil unless keepLog is set.
func runAgentAuction(env *auctionEnv, me int, g *group.Group, ep transport.Conn,
	hooks *strategy.Hooks, truthBid int, rng io.Reader, rec *AuctionTranscript,
	tr *auctionTracer, keepLog bool) (*AuctionOutcome, []string, error) {

	if hooks == nil {
		hooks = &strategy.Hooks{}
	}
	a := &agentRun{
		rec:      rec,
		tr:       tr,
		env:      env,
		me:       me,
		g:        g,
		f:        g.Scalars(),
		ep:       ep,
		hooks:    hooks,
		rng:      rng,
		truthBid: truthBid,
		keepLog:  keepLog,
		shares:   make([]*bidcode.Share, env.n),
		comms:    make([]*commit.Commitments, env.n),
		lambdas:  make([]*big.Int, env.n),
		psis:     make([]*big.Int, env.n),
	}
	if hooks.CrashBeforeAuction != nil && hooks.CrashBeforeAuction(env.task) {
		ep.Crash()
		return a.aborted("crashed"), a.roundLog, nil
	}
	view, err := a.run()
	return view, a.roundLog, err
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

// echoCheck runs the digest-exchange round when enabled; a mismatch makes
// the agent disengage (crash) so the remaining agents abort on missing
// data — see echo.go for the threat model.
func (a *agentRun) echoCheck(observed []transport.Message) (string, error) {
	if !a.env.echo {
		return "", nil
	}
	all := append(append([]transport.Message(nil), observed...), a.published...)
	a.published = nil
	reason, err := a.echoRound(all)
	if err != nil || reason == "" {
		return reason, err
	}
	a.ep.Crash()
	return reason, nil
}

func (a *agentRun) aborted(reason string) *AuctionOutcome {
	return &AuctionOutcome{
		Task: a.env.task, Aborted: true, AbortReason: reason, Winner: -1,
	}
}

func (a *agentRun) logf(format string, args ...any) {
	if a.keepLog {
		a.roundLog = append(a.roundLog, fmt.Sprintf(format, args...))
	}
}

func (a *agentRun) run() (*AuctionOutcome, error) {
	// ---- Round 1: Phase II Bidding — shares (p2p) + commitments. ----
	// Span ends are explicit on every exit path rather than deferred:
	// a deferred End would stretch each phase span to the function end.
	bsp := a.tr.phaseSpan("bidding", "II")
	if err := a.bid1(); err != nil {
		bsp.End()
		return nil, err
	}
	round1 := a.ep.FinishRound()
	a.env.clock.markBiddingEnd()
	a.collect(round1)
	a.logf("round 1 (bidding): sent shares and commitments")
	a.rec.recordBidding(a)
	if reason, err := a.echoCheck(round1); err != nil {
		bsp.End()
		return nil, err
	} else if reason != "" {
		bsp.End()
		return a.aborted(reason), nil
	}
	bsp.End()

	// ---- Round 2: Phase III step 1-2 — verify, publish Lambda/Psi. ----
	vsp := a.tr.phaseSpan("commit_verify", "III")
	a.verifySharesAndCommitments()
	vsp.End()
	if fa := a.hooks.FalseAbort; a.abortReason == "" && fa != nil && fa(a.env.task) {
		a.abortReason = "spurious abort raised by strategy"
	}
	lsp := a.tr.phaseSpan("lambda_psi", "III")
	if err := a.publishLambdaPsiOrAbort(); err != nil {
		lsp.End()
		return nil, err
	}
	round2 := a.ep.FinishRound()
	a.collect(round2)
	a.logf("round 2 (allocating): published Lambda/Psi")
	a.rec.recordLambdaPsi(a)
	if reason, err := a.echoCheck(round2); err != nil {
		lsp.End()
		return nil, err
	} else if reason != "" {
		lsp.End()
		return a.aborted(reason), nil
	}
	if a.abortSeen || a.abortReason != "" {
		lsp.End()
		return a.aborted(a.firstReason("peer aborted after bidding")), nil
	}

	// ---- Post-round-2: verify Lambda/Psi, resolve first price. ----
	// These checks consume only broadcast data, so every agent reaches
	// the same verdict; p2p-independent failures are announced in the
	// next round to release lazy verifiers too.
	reason := a.verifyLambdaPsi()
	firstDeg := -1
	if reason == "" {
		var err error
		firstDeg, err = a.resolveDegree(a.lambdas)
		if err != nil {
			reason = fmt.Sprintf("first-price resolution failed: %v", err)
		}
	}
	lsp.End()
	if reason != "" {
		a.abortReason = reason
		if err := a.broadcast(transport.KindAbort, AbortPayload{Reason: reason}); err != nil {
			return nil, err
		}
		abortRound := a.ep.FinishRound()
		a.collect(abortRound)
		a.logf("round 3 (allocating): broadcast abort: %s", reason)
		// Keep round-aligned with agents that proceeded to a disclosure
		// round and will echo it.
		if _, err := a.echoCheck(abortRound); err != nil {
			return nil, err
		}
		return a.aborted(reason), nil
	}
	firstPrice := a.env.cfg.Sigma() - firstDeg
	a.logf("resolved first price y* = %d (degree %d)", firstPrice, firstDeg)

	// ---- Disclosure rounds: winner identification (step III.3). ----
	winner, reason, err := a.discloseAndFindWinner(firstPrice)
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return a.aborted(reason), nil
	}
	a.logf("winner identified: agent %d", winner)

	// ---- Second-price round (step III.4). ----
	psp := a.tr.phaseSpan("second_price", "III")
	secondPrice, reason, err := a.resolveSecondPrice(winner)
	psp.End()
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return a.aborted(reason), nil
	}
	a.logf("resolved second price y** = %d", secondPrice)

	return &AuctionOutcome{
		Task:        a.env.task,
		Winner:      winner,
		FirstPrice:  firstPrice,
		SecondPrice: secondPrice,
	}, nil
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

	for to := 0; to < env.n; to++ {
		if to == a.me {
			continue
		}
		if a.hooks.OmitShareTo != nil && a.hooks.OmitShareTo(env.task, to) {
			continue
		}
		s := enc.ShareFor(env.alphas[to])
		if a.hooks.TamperShare != nil {
			s = s.Clone()
			a.hooks.TamperShare(env.task, to, &s)
		}
		if err := a.ep.Send(to, transport.KindShare, env.task, SharePayload{Share: s}); err != nil {
			return err
		}
	}
	// Own share and published commitments go straight into local state.
	own := enc.ShareFor(env.alphas[a.me])
	a.shares[a.me] = &own
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

// collect routes one round's deliveries into the agent state.
func (a *agentRun) collect(msgs []transport.Message) {
	for _, m := range msgs {
		if m.Task != a.env.task {
			continue
		}
		switch p := m.Payload.(type) {
		case SharePayload:
			if a.shares[m.From] == nil {
				s := p.Share
				a.shares[m.From] = &s
				if a.hooks.ObserveShare != nil {
					a.hooks.ObserveShare(a.env.task, m.From, s.Clone())
				}
			}
		case CommitmentsPayload:
			if a.comms[m.From] == nil {
				a.comms[m.From] = p.C
			}
		case LambdaPsiPayload:
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

// verifySharesAndCommitments performs step III.1 (equations (7)-(9)).
// Missing data always aborts (the agent cannot proceed without it);
// validity failures abort unless the strategy skips verification.
//
// The cryptographic checks run through commit.BatchVerifyShares: one
// random-linear-combination identity over all senders at once, falling
// back to per-sender checks only when the batch rejects — so the happy
// path costs a single multi-exponentiation while abort reasons still
// name the guilty agent with the same message the sequential scan
// produced.
func (a *agentRun) verifySharesAndCommitments() {
	env := a.env
	items := make([]commit.BatchItem, 0, env.n-1)
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
				return
			}
		}
		a.abortReason = structuralAbort
		return
	}
	if len(items) == 0 {
		return
	}
	verify := func() error {
		if env.verifier != nil {
			return env.verifier.VerifyShares(env.powers[a.me], items, a.rng)
		}
		return commit.BatchVerifyShares(a.g, env.powers[a.me], items, a.rng)
	}
	if err := verify(); err != nil {
		var verr *commit.VerifyError
		if errors.As(err, &verr) {
			a.abortReason = fmt.Sprintf("share from agent %d inconsistent: %v", verr.Sender, verr.Err)
		} else {
			a.abortReason = fmt.Sprintf("share verification failed: %v", err)
		}
	}
}

// publishLambdaPsiOrAbort executes step III.2 (equation (10)) or
// announces the abort decided during verification.
func (a *agentRun) publishLambdaPsiOrAbort() error {
	env := a.env
	if a.abortReason != "" {
		return a.broadcast(transport.KindAbort, AbortPayload{Reason: a.abortReason})
	}
	if a.hooks.OmitLambdaPsi != nil && a.hooks.OmitLambdaPsi(env.task) {
		return nil
	}
	lambda, psi := a.lambdaPsi(-1)
	if a.hooks.TamperLambdaPsi != nil {
		a.hooks.TamperLambdaPsi(env.task, lambda, psi)
	}
	a.lambdas[a.me], a.psis[a.me] = lambda, psi
	return a.broadcast(transport.KindLambdaPsi, LambdaPsiPayload{Lambda: lambda, Psi: psi})
}

// lambdaPsi computes the pair of equation (10) from the shares this agent
// holds: Lambda = z1^(sum_k e_k(alpha_me)), Psi = z2^(sum_k h_k(alpha_me)).
// exclude >= 0 leaves that agent's shares out of both sums (equation (15),
// the winner-excluded pair).
func (a *agentRun) lambdaPsi(exclude int) (lambda, psi *big.Int) {
	var esum, hsum big.Int
	var s field.Scratch
	for k, sh := range a.shares {
		if k == exclude || sh == nil {
			continue
		}
		a.f.AddInto(&esum, &esum, sh.E, &s)
		a.f.AddInto(&hsum, &hsum, sh.H, &s)
	}
	return a.g.Pow1(&esum), a.g.Pow2(&hsum)
}

// verifyLambdaPsi checks every published pair against equation (11).
// Missing pairs are fatal regardless of laziness; invalid pairs are
// fatal for verifying agents.
func (a *agentRun) verifyLambdaPsi() string {
	env := a.env
	gt, err := commit.NewGammaTable(a.g, a.comms, env.powers)
	if err != nil {
		return fmt.Sprintf("building gamma table: %v", err)
	}
	if env.gammaCache != nil {
		gt.UseShared(env.gammaCache)
	}
	a.gammas = gt
	for k := 0; k < env.n; k++ {
		if a.lambdas[k] == nil || a.psis[k] == nil {
			return fmt.Sprintf("missing Lambda/Psi from agent %d", k)
		}
		if a.hooks.SkipVerification {
			continue
		}
		if err := gt.VerifyLambdaPsi(k, a.lambdas[k], a.psis[k], -1); err != nil {
			return fmt.Sprintf("Lambda/Psi from agent %d inconsistent: %v", k, err)
		}
	}
	return ""
}

// resolveDegree runs the distributed degree resolution of equation (12)
// over the published Lambda values, or over the winner-excluded values in
// the second-price step. commit.Resolver bisects the candidate degrees
// instead of scanning them: the probe "the first d+1 pseudonyms
// interpolate Lambda to the identity" is true for every d >= tau once
// equation (11) binds Lambda, and false below tau except with
// probability ~1/q, so O(log |W|) probes find the first true one. The
// auction's agents share each resolution through env.resolutions.
//
// Winner-exclusion contract: in the second-price pass the winner's
// e-share was removed from the SUMS inside the published bar-Lambda
// values by their publishers (equation (15)). The winner's NODE is not
// removed from the resolution: every agent, the winner included, still
// publishes a pair, and the first d+1 pseudonyms are used regardless of
// which agent won, so the arithmetic is identical for both passes.
// TestResolveDegreeSecondPriceSemantics pins this behavior.
func (a *agentRun) resolveDegree(lambdas []*big.Int) (int, error) {
	return a.env.resolver.Resolve(a.g, lambdas, a.env.resolutions)
}

// discloseAndFindWinner runs the dynamic disclosure loop of step III.3:
// the first y*+1 agents (by pseudonym order) disclose the f-shares they
// received; invalid or missing disclosures designate replacement
// disclosers in follow-up rounds ("any of the other properly functioning
// agents can transmit their shares", Theorem 8's proof). Once y*+1 valid
// disclosures exist, the winner is the smallest pseudonym whose
// f-polynomial interpolates to zero (equation (14)).
func (a *agentRun) discloseAndFindWinner(firstPrice int) (winner int, abortReason string, err error) {
	env := a.env
	needed := firstPrice + 1
	if needed > env.n {
		return -1, fmt.Sprintf("winner identification needs %d disclosures, have %d agents", needed, env.n), nil
	}

	valid := make(map[int][]*big.Int) // discloser -> F vector
	attempted := make([]bool, env.n)
	round := 3
	for len(valid) < needed {
		dsp := a.tr.phaseSpan("disclosure", "III", obs.Int("round", round))
		// Deterministic designation: the first (needed - len(valid))
		// pseudonyms that have not yet attempted.
		var designated []int
		for k := 0; k < env.n && len(designated) < needed-len(valid); k++ {
			if !attempted[k] {
				designated = append(designated, k)
			}
		}
		if len(designated) < needed-len(valid) {
			// Announce and abort: disclosure sources exhausted.
			reason := "not enough valid disclosures for winner identification"
			if err := a.broadcast(transport.KindAbort, AbortPayload{Reason: reason}); err != nil {
				dsp.End()
				return -1, "", err
			}
			a.collect(a.ep.FinishRound())
			a.logf("round %d (allocating): abort: %s", round, reason)
			dsp.End()
			return -1, reason, nil
		}
		for _, k := range designated {
			attempted[k] = true
		}

		mine := false
		for _, k := range designated {
			if k == a.me {
				mine = true
			}
		}
		var myDisclosure []*big.Int
		if (mine || a.hooks.AlwaysDisclose) && !(a.hooks.OmitDisclosure != nil && a.hooks.OmitDisclosure(env.task)) {
			myDisclosure = a.buildDisclosure()
			if a.hooks.TamperDisclosure != nil {
				a.hooks.TamperDisclosure(env.task, myDisclosure)
			}
			if err := a.broadcast(transport.KindDisclosure, DisclosurePayload{F: myDisclosure}); err != nil {
				return -1, "", err
			}
		}
		msgs := a.ep.FinishRound()
		a.logf("round %d (allocating): disclosure round, %d designated", round, len(designated))
		round++
		if reason, err := a.echoCheck(msgs); err != nil {
			dsp.End()
			return -1, "", err
		} else if reason != "" {
			dsp.End()
			return -1, reason, nil
		}

		// Gather this round's disclosures, own included.
		got := map[int][]*big.Int{}
		for _, m := range msgs {
			if m.Task != env.task {
				continue
			}
			if p, ok := m.Payload.(DisclosurePayload); ok {
				if _, dup := got[m.From]; !dup {
					got[m.From] = p.F
				}
			}
			if _, ok := m.Payload.(AbortPayload); ok {
				a.abortSeen = true
			}
		}
		if myDisclosure != nil {
			got[a.me] = myDisclosure
		}
		if a.abortSeen {
			dsp.End()
			return -1, "peer aborted during winner identification", nil
		}
		// Validate via equation (13). This check is part of the shared
		// control flow, so every agent (lazy or not) computes it; see
		// package strategy.
		for k, f := range got {
			if _, have := valid[k]; have {
				continue
			}
			if len(f) != env.n {
				continue
			}
			if err := commit.VerifyDisclosure(a.g, a.comms, env.powers[k], f, a.psis[k]); err != nil {
				continue
			}
			valid[k] = f
			a.rec.recordDisclosure(k, f)
		}
		dsp.End()
	}

	// Pick the y*+1 smallest-pseudonym valid disclosers.
	disclosers := make([]int, 0, len(valid))
	for k := range valid {
		disclosers = append(disclosers, k)
	}
	sort.Ints(disclosers)
	disclosers = disclosers[:needed]

	winner, err = identifyWinner(a.f, env.alphas, disclosers, valid, env.n)
	if err != nil {
		return -1, fmt.Sprintf("winner interpolation failed: %v", err), nil
	}
	if winner < 0 {
		return -1, "no agent's f-polynomial matches the first price", nil
	}
	return winner, "", nil
}

// identifyWinner applies equation (14): the winner's f-polynomial has
// degree y*, so it interpolates to zero over the y*+1 disclosers' nodes;
// losers' higher-degree polynomials do not (w.h.p.). Ties break to the
// smallest pseudonym; -1 means no candidate matched.
//
// Every candidate is interpolated over the SAME nodes, so the Lagrange
// coefficients are taken once, rho = LagrangeAtZero(alpha_disclosers), and
// each candidate costs the inner product f^(s)(0) = sum_k rho_k f(alpha_k)
// instead of an interpolation (and its inversions) of its own.
// disclosed[k][cand] is f_cand(alpha_k) as discloser k published it.
func identifyWinner(f *field.Field, alphas []*big.Int, disclosers []int, disclosed map[int][]*big.Int, n int) (int, error) {
	nodes := make([]*big.Int, len(disclosers))
	for i, k := range disclosers {
		nodes[i] = alphas[k]
	}
	rho, err := f.LagrangeAtZero(nodes)
	if err != nil {
		return -1, err
	}
	var (
		v    big.Int
		s    field.Scratch
		vals = make([]*big.Int, len(disclosers))
	)
	for cand := 0; cand < n; cand++ {
		for i, k := range disclosers {
			vals[i] = disclosed[k][cand]
		}
		if _, err := f.InnerProductInto(&v, rho, vals, &s); err != nil {
			return -1, err
		}
		if v.Sign() == 0 {
			return cand, nil
		}
	}
	return -1, nil
}

// buildDisclosure assembles the f-shares this agent received (step
// III.3's disclosure of f_1(alpha_k)..f_n(alpha_k)).
func (a *agentRun) buildDisclosure() []*big.Int {
	out := make([]*big.Int, a.env.n)
	for l := 0; l < a.env.n; l++ {
		if a.shares[l] != nil && a.shares[l].F != nil {
			out[l] = new(big.Int).Set(a.shares[l].F)
		} else {
			out[l] = new(big.Int) // placeholder; fails eq (13)
		}
	}
	return out
}

// resolveSecondPrice runs step III.4: every agent publishes the
// winner-excluded pair (equation (15)), verified against equation (11)
// with the winner excluded, and the degree resolution re-runs to find
// y**.
func (a *agentRun) resolveSecondPrice(winner int) (int, string, error) {
	env := a.env
	barLambda := make([]*big.Int, env.n)
	barPsi := make([]*big.Int, env.n)

	if !(a.hooks.OmitSecondPrice != nil && a.hooks.OmitSecondPrice(env.task)) {
		lambda, psi := a.lambdaPsi(winner)
		if a.hooks.TamperSecondPrice != nil {
			a.hooks.TamperSecondPrice(env.task, lambda, psi)
		}
		barLambda[a.me], barPsi[a.me] = lambda, psi
		if err := a.broadcast(transport.KindSecondPrice, SecondPricePayload{Lambda: lambda, Psi: psi}); err != nil {
			return 0, "", err
		}
	}
	msgs := a.ep.FinishRound()
	a.logf("round (allocating): published second-price pair excluding winner %d", winner)
	if reason, err := a.echoCheck(msgs); err != nil {
		return 0, "", err
	} else if reason != "" {
		return 0, reason, nil
	}
	for _, m := range msgs {
		if m.Task != env.task {
			continue
		}
		switch p := m.Payload.(type) {
		case SecondPricePayload:
			if barLambda[m.From] == nil {
				barLambda[m.From], barPsi[m.From] = p.Lambda, p.Psi
			}
		case AbortPayload:
			a.abortSeen = true
		}
	}
	if a.abortSeen {
		return 0, "peer aborted during second-price resolution", nil
	}
	a.rec.recordSecondPrice(barLambda, barPsi)
	// Verify equation (11) excluding the winner; invalidate failing
	// entries so resolution skips... a failing entry among the first
	// d+1 nodes is fatal, matching Theorem 4's analysis.
	for k := 0; k < env.n; k++ {
		if barLambda[k] == nil || barPsi[k] == nil {
			barLambda[k] = nil
			continue
		}
		if err := a.gammas.VerifyLambdaPsi(k, barLambda[k], barPsi[k], winner); err != nil {
			barLambda[k] = nil
		}
	}
	deg, err := a.resolveDegree(barLambda)
	if err != nil {
		return 0, fmt.Sprintf("second-price resolution failed: %v", err), nil
	}
	return env.cfg.Sigma() - deg, "", nil
}
