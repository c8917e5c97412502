package main

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"dmw"
	"dmw/internal/bidcode"
	"dmw/internal/commit"
	protocol "dmw/internal/dmw"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/obs"
	"dmw/internal/poly"
	"dmw/internal/transport"
)

// replay re-executes one job's worth of work through the exported functions
// of each package, sequentially and from outside: every agent's encode,
// commit, verify, publish, resolve and disclose step of every auction, with
// the real values, in protocol order. What it times is what a job costs in
// each layer when nothing runs concurrently; what a real dmw.Run costs
// beyond the sum (goroutines, round barriers, GC) is dmw.unattributed_share.
//
// The replay also checks itself: the winner and prices it derives must
// equal centralized MinWork's, or the per-layer numbers describe the wrong
// computation.
type replay struct {
	w workload
	g *group.Group
	f *field.Field

	// layer accumulates time by package; calls collects per-call samples
	// (ns) for the metrics named after single functions.
	layer map[string]time.Duration
	calls map[string][]float64

	// rec, when non-nil, receives one span per timed call under parent.
	rec    *obs.Recorder
	parent obs.SpanID

	// rounds is the job's exact message pattern, replayed over the real
	// round fabric by runFabric; fixtures keeps one of each value the
	// function-level metrics need as input.
	rounds   [][]txRound // per task
	fixtures struct {
		alphas []*big.Int
		powers [][]*big.Int
		enc    *bidcode.EncodedBid
		comms  []*commit.Commitments
		items  [][]commit.BatchItem // per receiver
		lambda []*big.Int
		psi    []*big.Int
		esum   []*big.Int // summed e-shares per node (poly.ResolveDegree input)
	}
}

// txMsg is one send; to < 0 broadcasts.
type txMsg struct {
	to      int
	kind    transport.Kind
	payload any
}

// txRound is what each agent sends in one round.
type txRound [][]txMsg

func newReplay(w workload, g *group.Group) *replay {
	return &replay{w: w, g: g, f: g.Scalars(), layer: map[string]time.Duration{}, calls: map[string][]float64{}}
}

// timed runs fn, charging it to layer and, when call is set, recording it
// as one sample (and one span) of that call.
func (r *replay) timed(layer, call string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	r.layer[layer] += t1.Sub(t0)
	if call != "" {
		r.calls[call] = append(r.calls[call], float64(t1.Sub(t0)))
		r.rec.Record(call, r.parent, t0, t1)
	}
	return err
}

// job replays one job on the bids seed generates.
func (r *replay) job(seed int64) error {
	w, g, f := r.w, r.g, r.f
	cfg := w.bid()
	n, sigma := w.N, cfg.Sigma()
	bids := dmw.RandomBids(w.N, w.M, w.W, seed)
	rng := rand.New(rand.NewSource(seed))
	cands := cfg.DegreeCandidates()
	r.rounds = r.rounds[:0]

	// Phase I: published parameters and the per-run precomputation.
	var alphas []*big.Int
	if err := r.timed("bidcode", "", func() (err error) {
		alphas, err = bidcode.Pseudonyms(f, n)
		return err
	}); err != nil {
		return err
	}
	powers := make([][]*big.Int, n)
	_ = r.timed("commit", "", func() error {
		for k := range powers {
			powers[k] = commit.PowersOf(f, alphas[k], sigma)
		}
		return nil
	})
	rhos := make([][]*big.Int, len(cands))
	for ci, d := range cands {
		if err := r.timed("field", "field.lagrange", func() (err error) {
			rhos[ci], err = f.LagrangeAtZero(alphas[:d+1])
			return err
		}); err != nil {
			return err
		}
	}
	// resolve is equation (12): the first candidate degree whose (d+1)-term
	// product over the published values is the identity.
	resolve := func(vals []*big.Int) (deg int, err error) {
		deg = -1
		err = r.timed("group", "", func() error {
			for ci, d := range cands {
				prod, err := g.MultiExp(vals[:d+1], rhos[ci][:d+1])
				if err != nil {
					return err
				}
				if g.IsOne(prod) {
					deg = d
					return nil
				}
			}
			return poly.ErrDegreeUnresolved
		})
		return deg, err
	}
	publish := func(shares [][]bidcode.Share, k, exclude int) (lambda, psi, esum *big.Int) {
		esum, hsum := new(big.Int), new(big.Int)
		_ = r.timed("field", "", func() error {
			for i := 0; i < n; i++ {
				if i != exclude {
					esum = f.Add(esum, shares[i][k].E)
					hsum = f.Add(hsum, shares[i][k].H)
				}
			}
			return nil
		})
		_ = r.timed("group", "", func() error {
			lambda, psi = g.Pow1(esum), g.Pow2(hsum)
			return nil
		})
		return lambda, psi, esum
	}

	ref, err := dmw.RunCentralized(bids)
	if err != nil {
		return err
	}
	claims := make([]int64, n)
	for task := 0; task < w.M; task++ {
		// Phase II: every agent encodes its bid, commits, and deals shares.
		encs := make([]*bidcode.EncodedBid, n)
		comms := make([]*commit.Commitments, n)
		shares := make([][]bidcode.Share, n) // shares[i][k]: dealt by i to k
		for i := 0; i < n; i++ {
			if err := r.timed("bidcode", "bidcode.encode", func() (err error) {
				encs[i], err = bidcode.Encode(cfg, bids[i][task], f, rng)
				return err
			}); err != nil {
				return err
			}
			if err := r.timed("commit", "commit.new", func() (err error) {
				comms[i], err = commit.New(g, encs[i], sigma)
				return err
			}); err != nil {
				return err
			}
			_ = r.timed("bidcode", "bidcode.shares", func() error {
				shares[i] = encs[i].SharesFor(alphas)
				return nil
			})
		}
		bidding := make(txRound, n)
		for i := range bidding {
			for k := 0; k < n; k++ {
				if k != i {
					bidding[i] = append(bidding[i], txMsg{k, transport.KindShare, protocol.SharePayload{Share: shares[i][k]}})
				}
			}
			bidding[i] = append(bidding[i], txMsg{-1, transport.KindCommitments, protocol.CommitmentsPayload{C: comms[i]}})
		}

		// Phase III.1-2: verify the n-1 received shares, publish Lambda/Psi.
		lambda, psi, esum := make([]*big.Int, n), make([]*big.Int, n), make([]*big.Int, n)
		items := make([][]commit.BatchItem, n)
		pairs := make(txRound, n)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if i != k {
					items[k] = append(items[k], commit.BatchItem{Sender: i, C: comms[i], S: shares[i][k]})
				}
			}
			if err := r.timed("commit", "commit.batch_verify", func() error {
				return commit.BatchVerifyShares(g, powers[k], items[k], rng)
			}); err != nil {
				return err
			}
			lambda[k], psi[k], esum[k] = publish(shares, k, -1)
			pairs[k] = []txMsg{{-1, transport.KindLambdaPsi, protocol.LambdaPsiPayload{Lambda: lambda[k], Psi: psi[k]}}}
		}

		// Every agent checks every published pair (equation (11)) through
		// its own Gamma table over the auction's shared cache, then
		// resolves the first price.
		cache := commit.NewSharedGammaCache()
		tables := make([]*commit.GammaTable, n)
		firstDeg := -1
		for i := 0; i < n; i++ {
			if tables[i], err = commit.NewGammaTable(g, comms, powers); err != nil {
				return err
			}
			tables[i].UseShared(cache)
			for k := 0; k < n; k++ {
				if err := r.timed("commit", "", func() error {
					return tables[i].VerifyLambdaPsi(k, lambda[k], psi[k], -1)
				}); err != nil {
					return err
				}
			}
			if firstDeg, err = resolve(lambda); err != nil {
				return err
			}
		}
		firstPrice := sigma - firstDeg

		// Phase III.3: the first y*+1 agents disclose the f-shares they
		// hold; everyone verifies them (equation (13)) and interpolates
		// each candidate's f-polynomial at zero (equation (14)).
		needed := firstPrice + 1
		disclosed := make([][]*big.Int, needed)
		disclosure := make(txRound, n)
		for k := 0; k < needed; k++ {
			disclosed[k] = make([]*big.Int, n)
			for l := 0; l < n; l++ {
				disclosed[k][l] = shares[l][k].F
			}
			disclosure[k] = []txMsg{{-1, transport.KindDisclosure, protocol.DisclosurePayload{F: disclosed[k]}}}
		}
		winner := -1
		for i := 0; i < n; i++ {
			for k := 0; k < needed; k++ {
				if err := r.timed("commit", "commit.verify_disclosure", func() error {
					return commit.VerifyDisclosure(g, comms, powers[k], disclosed[k], psi[k])
				}); err != nil {
					return err
				}
			}
			winner = -1
			for cand := 0; cand < n && winner < 0; cand++ {
				pts := make([]poly.Share, needed)
				for k := range pts {
					pts[k] = poly.Share{Node: alphas[k], Value: disclosed[k][cand]}
				}
				if err := r.timed("poly", "poly.interpolate", func() error {
					v, err := poly.InterpolateAtZero(f, pts)
					if err == nil && v.Sign() == 0 {
						winner = cand
					}
					return err
				}); err != nil {
					return err
				}
			}
		}

		// Phase III.4: winner-excluded pairs, verified against the cached
		// Gammas, and the second resolution.
		barLambda, barPsi := make([]*big.Int, n), make([]*big.Int, n)
		second := make(txRound, n)
		for k := 0; k < n; k++ {
			barLambda[k], barPsi[k], _ = publish(shares, k, winner)
			second[k] = []txMsg{{-1, transport.KindSecondPrice, protocol.SecondPricePayload{Lambda: barLambda[k], Psi: barPsi[k]}}}
		}
		secondDeg := -1
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				if err := r.timed("commit", "", func() error {
					return tables[i].VerifyLambdaPsi(k, barLambda[k], barPsi[k], winner)
				}); err != nil {
					return err
				}
			}
			if secondDeg, err = resolve(barLambda); err != nil {
				return err
			}
		}
		secondPrice := sigma - secondDeg

		if winner != ref.Schedule.Agent[task] || int64(firstPrice) != ref.FirstPrice[task] || int64(secondPrice) != ref.SecondPrice[task] {
			return fmt.Errorf("layer replay diverged on task %d: winner %d prices (%d,%d), MinWork %d (%d,%d)", task,
				winner, firstPrice, secondPrice, ref.Schedule.Agent[task], ref.FirstPrice[task], ref.SecondPrice[task])
		}
		claims[winner] += int64(secondPrice)
		r.rounds = append(r.rounds, []txRound{bidding, pairs, disclosure, second})

		fx := &r.fixtures
		fx.alphas, fx.powers, fx.enc, fx.comms, fx.items = alphas, powers, encs[0], comms, items
		fx.lambda, fx.psi, fx.esum = lambda, psi, esum
	}
	// Phase IV: one session-wide round of payment claims.
	payment := make(txRound, n)
	for i := range payment {
		payment[i] = []txMsg{{-1, transport.KindPaymentClaim, protocol.PaymentClaimPayload{Payments: claims}}}
	}
	r.rounds = append(r.rounds, []txRound{payment})
	return nil
}

// runFabric pushes the recorded message pattern through real transport
// networks: one network per auction plus the payment network, n agent
// goroutines each, exactly as dmw.Run drives them.
func runFabric(n int, nets [][]txRound) error {
	for _, rounds := range nets {
		nw, err := transport.New(n)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			ep, err := nw.Endpoint(i)
			if err != nil {
				return err
			}
			wg.Add(1)
			go func(i int, ep *transport.Endpoint) {
				defer wg.Done()
				for _, round := range rounds {
					for _, m := range round[i] {
						var err error
						if m.to < 0 {
							err = ep.Broadcast(m.kind, 0, m.payload)
						} else {
							err = ep.Send(m.to, m.kind, 0, m.payload)
						}
						if err != nil {
							errs[i] = err
						}
					}
					ep.FinishRound()
				}
			}(i, ep)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}
