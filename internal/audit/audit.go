// Package audit implements offline passive verification of DMW
// executions, in the spirit of the passive-strategyproofness-verification
// work the paper cites (Kang and Parkes) for open mechanism marketplaces.
//
// Every protocol decision — first price, winner, second price, payments —
// is a deterministic function of PUBLISHED values: the commitment
// vectors, the Lambda/Psi pairs, the disclosed f-shares, and the
// winner-excluded pairs. A third party holding the transcript (and no
// secret whatsoever) can therefore re-derive the outcome and check every
// published value against the commitments. Verify does exactly that and
// reports any discrepancy with the outcome the agents claimed.
package audit

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"dmw/internal/commit"
	protocol "dmw/internal/dmw"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/payment"

	"dmw/internal/bidcode"
)

// Finding is one verification failure.
type Finding struct {
	Task int
	// Agent is the implicated agent, or -1 when the failure is not
	// attributable.
	Agent int
	Issue string
}

func (f Finding) String() string {
	if f.Agent >= 0 {
		return fmt.Sprintf("task %d, agent %d: %s", f.Task, f.Agent, f.Issue)
	}
	return fmt.Sprintf("task %d: %s", f.Task, f.Issue)
}

// Report is the verifier's verdict over a whole transcript.
type Report struct {
	// Findings lists every discrepancy; empty means the transcript is
	// internally consistent and the claimed outcomes are correct.
	Findings []Finding
	// AuctionsChecked counts completed auctions that were re-derived.
	AuctionsChecked int
	// PaymentsOK reports whether the settled payments match the
	// re-derived outcomes.
	PaymentsOK bool
}

// OK reports whether the transcript passed every check.
func (r *Report) OK() bool { return len(r.Findings) == 0 && r.PaymentsOK }

func (r *Report) addf(task, agent int, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Task: task, Agent: agent, Issue: fmt.Sprintf(format, args...)})
}

// Verify re-derives every completed auction's outcome from the published
// transcript values and checks the claimed outcomes and payments.
// Aborted auctions carry no payments and are skipped (their published
// record is incomplete by construction).
func Verify(params *group.Params, tr *protocol.Transcript) (*Report, error) {
	if tr == nil {
		return nil, errors.New("audit: nil transcript")
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := tr.Bid.Validate(); err != nil {
		return nil, err
	}
	g, err := group.New(params)
	if err != nil {
		return nil, err
	}
	f := g.Scalars()
	n := tr.Bid.N
	alphas, err := bidcode.Pseudonyms(f, n)
	if err != nil {
		return nil, err
	}
	sigma := tr.Bid.Sigma()
	powers := make([][]*big.Int, n)
	for i, a := range alphas {
		powers[i] = commit.PowersOf(f, a, sigma)
	}
	// The engine's own resolver: the auditor re-derives exactly the
	// degrees the agents resolved, chance successes included.
	resolver, err := commit.NewResolver(f, tr.Bid.DegreeCandidates(), alphas)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}

	rep := &Report{PaymentsOK: true}
	derived := make([]*protocol.AuctionOutcome, len(tr.Auctions))
	for _, at := range tr.Auctions {
		if at.Claimed.Aborted {
			continue
		}
		out := verifyAuction(rep, g, f, tr.Bid, alphas, powers, resolver, at)
		derived[at.Task] = out
		if out != nil && *out != at.Claimed {
			rep.addf(at.Task, -1, "claimed outcome %+v differs from derived %+v", at.Claimed, *out)
		}
		rep.AuctionsChecked++
	}

	// Re-derive payments from the derived outcomes and check the
	// settlement the claims produce.
	want := make([]int64, n)
	for _, out := range derived {
		if out == nil || out.Aborted {
			continue
		}
		want[out.Winner] += int64(out.SecondPrice)
	}
	if len(tr.Claims) > 0 {
		st, err := payment.Settle(tr.Claims, n)
		if err != nil {
			rep.PaymentsOK = false
			rep.addf(-1, -1, "settlement failed: %v", err)
		} else {
			for i := range want {
				if st.Agreed[i] && st.Issued[i] != want[i] {
					rep.PaymentsOK = false
					rep.addf(-1, i, "settled payment %d differs from derived %d", st.Issued[i], want[i])
				}
			}
		}
	}
	return rep, nil
}

// verifyAuction re-derives one completed auction. It returns nil when the
// published record is too inconsistent to derive an outcome (findings are
// recorded).
func verifyAuction(rep *Report, g *group.Group, f *field.Field, cfg bidcode.Config,
	alphas []*big.Int, powers [][]*big.Int, resolver *commit.Resolver, at *protocol.AuctionTranscript) *protocol.AuctionOutcome {

	n := cfg.N
	task := at.Task
	if len(at.Commitments) != n || len(at.Lambda) != n || len(at.Psi) != n {
		rep.addf(task, -1, "transcript vectors have wrong length")
		return nil
	}
	// Structural checks on commitments.
	for k, c := range at.Commitments {
		if c == nil {
			rep.addf(task, k, "missing commitments")
			return nil
		}
		if err := c.Validate(); err != nil || c.Sigma() != cfg.Sigma() {
			rep.addf(task, k, "malformed commitments")
			return nil
		}
	}
	// One table checks both eq-(11) passes (the Lambda/Psi pairs here and
	// the winner-excluded pairs below) and the eq-(13) disclosures, as the
	// engine's agents do.
	gammas, err := commit.NewGammaTable(g, at.Commitments, powers)
	if err != nil {
		rep.addf(task, -1, "building gamma table: %v", err)
		return nil
	}
	// Equation (11) for every published pair.
	for k := 0; k < n; k++ {
		if at.Lambda[k] == nil || at.Psi[k] == nil {
			rep.addf(task, k, "missing Lambda/Psi")
			return nil
		}
		if err := gammas.VerifyLambdaPsi(k, at.Lambda[k], at.Psi[k], -1); err != nil {
			rep.addf(task, k, "Lambda/Psi fails eq (11): %v", err)
			return nil
		}
	}
	// First-price resolution (equation (12)).
	firstDeg, err := resolver.Resolve(g, at.Lambda)
	if err != nil {
		rep.addf(task, -1, "first-price resolution: %v", err)
		return nil
	}
	firstPrice := cfg.Sigma() - firstDeg

	// Disclosure checks (equation (13)) and winner derivation
	// (equation (14)).
	needed := firstPrice + 1
	var disclosers []int
	for k := range at.Disclosures {
		disclosers = append(disclosers, k)
	}
	sort.Ints(disclosers)
	var valid []int
	for _, k := range disclosers {
		fvec := at.Disclosures[k]
		if len(fvec) != n {
			rep.addf(task, k, "disclosure has %d entries, want %d", len(fvec), n)
			continue
		}
		if err := gammas.VerifyDisclosure(k, fvec, at.Psi[k]); err != nil {
			rep.addf(task, k, "disclosure fails eq (13): %v", err)
			continue
		}
		valid = append(valid, k)
	}
	if len(valid) < needed {
		rep.addf(task, -1, "only %d valid disclosures, need %d", len(valid), needed)
		return nil
	}
	winner, err := commit.IdentifyWinner(f, alphas, valid[:needed], at.Disclosures)
	if err != nil {
		rep.addf(task, -1, "winner interpolation: %v", err)
		return nil
	}
	if winner < 0 {
		rep.addf(task, -1, "no winner matches first price %d", firstPrice)
		return nil
	}

	// Second price: equation (11) excluding the winner, then resolution.
	for k := 0; k < n; k++ {
		if at.BarLambda[k] == nil || at.BarPsi[k] == nil {
			rep.addf(task, k, "missing winner-excluded pair")
			return nil
		}
		if err := gammas.VerifyLambdaPsi(k, at.BarLambda[k], at.BarPsi[k], winner); err != nil {
			rep.addf(task, k, "winner-excluded pair fails eq (11): %v", err)
			return nil
		}
	}
	secondDeg, err := resolver.Resolve(g, at.BarLambda)
	if err != nil {
		rep.addf(task, -1, "second-price resolution: %v", err)
		return nil
	}
	return &protocol.AuctionOutcome{
		Task:        task,
		Winner:      winner,
		FirstPrice:  firstPrice,
		SecondPrice: cfg.Sigma() - secondDeg,
	}
}
