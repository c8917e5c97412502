package dmw

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/mechanism"
	"dmw/internal/strategy"
)

// publicFixture is one recorded honest auction (Test64, n = 5, m = 1) and
// the run-wide values its public checks take.
type publicFixture struct {
	g          *group.Group
	f          *field.Field
	alphas     []*big.Int
	powers     [][]*big.Int
	resolver   *commit.Resolver
	winner     int
	disclosers []int
	view       *publicView // the published values, as recorded
}

// publicView is one receiver's copy of an auction's published values:
// slices of its own, holding whichever objects the medium handed it.
type publicView struct {
	comms                          []*commit.Commitments
	lambda, psi, barLambda, barPsi []*big.Int
	rows                           [][]*big.Int // rows[i]: disclosers[i]'s vector
}

// clone gives a receiver its own slices over the same objects.
func (v *publicView) clone() *publicView {
	return &publicView{
		comms:  append([]*commit.Commitments(nil), v.comms...),
		lambda: append([]*big.Int(nil), v.lambda...), psi: append([]*big.Int(nil), v.psi...),
		barLambda: append([]*big.Int(nil), v.barLambda...), barPsi: append([]*big.Int(nil), v.barPsi...),
		rows: append([][]*big.Int(nil), v.rows...),
	}
}

// copies holds value-equal copies of every object, as a medium that
// re-decodes each payload per receiver would hand over.
func (v *publicView) copies() *publicView {
	ints := func(xs []*big.Int) []*big.Int {
		out := make([]*big.Int, len(xs))
		for i, x := range xs {
			if x != nil {
				out[i] = new(big.Int).Set(x)
			}
		}
		return out
	}
	c := &publicView{lambda: ints(v.lambda), psi: ints(v.psi), barLambda: ints(v.barLambda), barPsi: ints(v.barPsi)}
	for _, cm := range v.comms {
		c.comms = append(c.comms, cm.Clone())
	}
	for _, row := range v.rows {
		c.rows = append(c.rows, ints(row))
	}
	return c
}

func newPublicFixture(t *testing.T) *publicFixture {
	t.Helper()
	g := group.MustSharedFor(group.PresetTest64)
	cfg := RunConfig{
		Params: g.Params(), Group: g,
		Bid:      bidcode.Config{W: []int{1, 2, 3}, C: 0, N: 5},
		TrueBids: [][]int{{2}, {3}, {1}, {2}, {3}},
		Seed:     3, Record: true,
	}
	res := mustRun(t, cfg)
	at := res.Transcript.Auctions[0]
	if at.Claimed.Aborted {
		t.Fatalf("fixture auction aborted: %s", at.Claimed.AbortReason)
	}
	fx := &publicFixture{g: g, f: g.Scalars(), winner: at.Claimed.Winner}
	nodes, err := fx.f.Nodes(cfg.Bid.N, cfg.Bid.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	resolver := commit.ResolverOver(cfg.Bid.DegreeCandidates(), nodes)
	fx.alphas, fx.powers, fx.resolver = nodes.Alphas, nodes.Powers, resolver
	fx.view = &publicView{comms: at.Commitments, lambda: at.Lambda, psi: at.Psi, barLambda: at.BarLambda, barPsi: at.BarPsi}
	for k := range at.Disclosures {
		fx.disclosers = append(fx.disclosers, k)
	}
	sort.Ints(fx.disclosers)
	for _, k := range fx.disclosers {
		fx.view.rows = append(fx.view.rows, at.Disclosures[k])
	}
	return fx
}

// publicVerdict is one receiver's result of one kind of check: desc
// renders it, err is its first error value.
type publicVerdict struct {
	desc string
	err  error
}

func (v *publicVerdict) add(err error) {
	if err == nil {
		v.desc += "ok "
		return
	}
	v.desc += err.Error() + "; "
	if v.err == nil {
		v.err = err
	}
}

// TestPublicVerdicts is the table of every verdict auctionPublic shares:
// five receivers ask each check of one recorded auction, holding the
// honest objects, one tampered object, an equivocation (two receivers
// hold the tampered object, three the honest one) or value-equal copies
// of every object. The honest objects must pass every check; each
// receiver's cached verdict must equal the one it computes alone;
// receivers holding the same objects must get the same error value; the
// cache must hold one entry per distinct input (copies are distinct); and
// all receivers together must cost the group exactly what one receiver
// per distinct input costs.
func TestPublicVerdicts(t *testing.T) {
	fx := newPublicFixture(t)
	g, n, d := fx.g, len(fx.alphas), len(fx.disclosers)
	mul := func(x *big.Int) *big.Int { return g.Mul(x, g.Params().Z1) }
	lambdaPsi := func(pass func(v *publicView) (lambda, psi []*big.Int), exclude int) func(*auctionPublic, *group.Group, *publicView) publicVerdict {
		return func(p *auctionPublic, g *group.Group, v *publicView) (out publicVerdict) {
			t, err := commit.NewGammaTable(g, v.comms, fx.powers)
			if err != nil {
				out.add(err)
				return out
			}
			lambda, psi := pass(v)
			for k := range lambda {
				out.add(p.check(checkKey{v.comms, k, exclude, lambda[k], psi[k], nil}, func() error {
					return t.VerifyLambdaPsi(k, lambda[k], psi[k], exclude)
				}))
			}
			return out
		}
	}
	kinds := []struct {
		name    string
		tamper  func(v *publicView) // replaces one object of v
		ask     func(p *auctionPublic, g *group.Group, v *publicView) publicVerdict
		entries func(p *auctionPublic) int
		each    int // entries one distinct view adds
		differs int // entries a view differing only by the tampered object adds
		// inert marks a tamper of what the check leaves out: it must not
		// move the verdict.
		inert bool
	}{
		{"gamma table",
			func(v *publicView) {
				c := v.comms[2].Clone()
				c.Q[0] = mul(c.Q[0])
				v.comms[2] = c
			},
			lambdaPsi(func(v *publicView) ([]*big.Int, []*big.Int) { return v.lambda, v.psi }, -1),
			func(p *auctionPublic) int { return len(p.checks) }, n, n, false},
		{"eq11 first price",
			func(v *publicView) { v.lambda[1] = mul(v.lambda[1]) },
			lambdaPsi(func(v *publicView) ([]*big.Int, []*big.Int) { return v.lambda, v.psi }, -1),
			func(p *auctionPublic) int { return len(p.checks) }, n, 1, false},
		{"eq11 second price",
			func(v *publicView) { v.barPsi[3] = mul(v.barPsi[3]) },
			lambdaPsi(func(v *publicView) ([]*big.Int, []*big.Int) { return v.barLambda, v.barPsi }, fx.winner),
			func(p *auctionPublic) int { return len(p.checks) }, n, 1, false},
		{"eq11 second price, winner's commitments",
			func(v *publicView) {
				c := v.comms[fx.winner].Clone()
				c.Q[0] = mul(c.Q[0])
				v.comms[fx.winner] = c
			},
			lambdaPsi(func(v *publicView) ([]*big.Int, []*big.Int) { return v.barLambda, v.barPsi }, fx.winner),
			func(p *auctionPublic) int { return len(p.checks) }, n, n, true},
		{"eq13 disclosure",
			func(v *publicView) {
				row := append([]*big.Int(nil), v.rows[0]...)
				row[2] = new(big.Int).Add(row[2], big.NewInt(1))
				v.rows[0] = row
			},
			func(p *auctionPublic, g *group.Group, v *publicView) (out publicVerdict) {
				t, err := commit.NewGammaTable(g, v.comms, fx.powers)
				if err != nil {
					out.add(err)
					return out
				}
				for i, k := range fx.disclosers {
					out.add(p.check(checkKey{v.comms, k, -1, nil, v.psi[k], v.rows[i]}, func() error {
						return t.VerifyDisclosure(k, v.rows[i], v.psi[k])
					}))
				}
				return out
			},
			func(p *auctionPublic) int { return len(p.checks) }, d, 1, false},
		{"resolution",
			func(v *publicView) { v.lambda[0] = nil },
			func(p *auctionPublic, g *group.Group, v *publicView) (out publicVerdict) {
				deg, err := p.resolve(g, fx.resolver, v.lambda)
				out.desc = fmt.Sprint(deg, " ")
				out.add(err)
				return out
			},
			func(p *auctionPublic) int { return len(p.resolutions) }, 1, 1, false},
		{"winner",
			func(v *publicView) {
				row := append([]*big.Int(nil), v.rows[0]...)
				row[fx.winner] = new(big.Int).Add(row[fx.winner], big.NewInt(1))
				v.rows[0] = row
			},
			func(p *auctionPublic, g *group.Group, v *publicView) (out publicVerdict) {
				w, err := p.winner(fx.f, fx.alphas, fx.disclosers, v.rows)
				out.desc = fmt.Sprint(w, " ")
				out.add(err)
				return out
			},
			func(p *auctionPublic) int { return len(p.winners) }, 1, 1, false},
	}
	tampered := func(tamper func(*publicView)) *publicView {
		v := fx.view.clone()
		tamper(v)
		return v
	}
	variants := []struct {
		name string
		// class[r] is the view receiver r holds: 0 the honest one, 1 other.
		class   []int
		other   func(tamper func(*publicView)) *publicView
		entries func(each, differs int) int
	}{
		{"honest", []int{0, 0, 0, 0, 0}, nil, func(e, _ int) int { return e }},
		{"tampered", []int{1, 1, 1, 1, 1}, tampered, func(e, _ int) int { return e }},
		{"equivocated", []int{0, 1, 0, 0, 1}, tampered, func(e, d int) int { return e + d }},
		{"value-equal copies", []int{0, 1, 0, 0, 1}, func(func(*publicView)) *publicView { return fx.view.copies() }, func(e, _ int) int { return 2 * e }},
	}
	for _, kind := range kinds {
		honest := kind.ask(nil, g, fx.view.clone())
		if honest.err != nil {
			t.Errorf("%s: the recorded honest auction fails: %s", kind.name, honest.desc)
		}
		for _, vt := range variants {
			t.Run(kind.name+"/"+vt.name, func(t *testing.T) {
				views := []*publicView{fx.view}
				if vt.other != nil {
					views = append(views, vt.other(kind.tamper))
				}
				var all, reps group.Counter
				p, pReps := new(auctionPublic), new(auctionPublic)
				got := make([]publicVerdict, len(vt.class))
				first := map[int]int{} // class -> first receiver holding it
				for r, c := range vt.class {
					got[r] = kind.ask(p, g.WithCounter(&all), views[c].clone())
					if want := kind.ask(nil, g, views[c].clone()); got[r].desc != want.desc {
						t.Errorf("receiver %d: shared verdict %q, alone %q", r, got[r].desc, want.desc)
					}
					if f, seen := first[c]; seen {
						if got[r].err != got[f].err || got[r].desc != got[f].desc {
							t.Errorf("receivers %d and %d hold the same objects, got %q (%v) and %q (%v)",
								f, r, got[f].desc, got[f].err, got[r].desc, got[r].err)
						}
						continue
					}
					first[c] = r
					kind.ask(pReps, g.WithCounter(&reps), views[c].clone())
				}
				if e, want := kind.entries(p), vt.entries(kind.each, kind.differs); e != want {
					t.Errorf("%d cache entries, want %d", e, want)
				}
				if all.Exp() != reps.Exp() || all.Mul() != reps.Mul() ||
					all.MultiExps() != reps.MultiExps() || all.MultiExpTerms() != reps.MultiExpTerms() {
					t.Errorf("%d receivers cost exp/mul/multiexp/terms %d/%d/%d/%d, one per distinct input %d/%d/%d/%d",
						len(vt.class), all.Exp(), all.Mul(), all.MultiExps(), all.MultiExpTerms(),
						reps.Exp(), reps.Mul(), reps.MultiExps(), reps.MultiExpTerms())
				}
				switch {
				case kind.inert:
					if got[0].desc != honest.desc || got[1].desc != honest.desc {
						t.Errorf("a tamper of what the check leaves out moved the verdicts to %q, %q from %q",
							got[0].desc, got[1].desc, honest.desc)
					}
				case vt.name == "tampered":
					if got[0].desc == honest.desc {
						t.Errorf("tampering left the verdict %q unchanged", honest.desc)
					}
				case vt.name == "equivocated":
					if got[0].desc == got[1].desc {
						t.Errorf("equivocated receivers agree on %q", got[0].desc)
					}
				default:
					if got[0].desc != honest.desc || got[1].desc != honest.desc {
						t.Errorf("verdicts %q, %q, want the honest %q", got[0].desc, got[1].desc, honest.desc)
					}
				}
			})
		}
	}

	// The engine's use of the cache, end to end.
	bids := [][]int{{1, 3}, {2, 1}, {3, 2}, {3, 3}, {2, 2}} // y* = 1: agents 0 and 1 disclose
	runCfg := func(g *group.Group, seed int64) RunConfig {
		return RunConfig{Params: g.Params(), Group: g, Bid: bidcode.Config{W: []int{1, 2, 3}, C: 0, N: len(bids)},
			TrueBids: bids, Seed: seed, Parallelism: 1}
	}
	t.Run("run/eq13 once per distinct disclosure", func(t *testing.T) {
		// Agent 4 also discloses, undesignated (a harmless deviation):
		// one more distinct disclosure per auction, which every agent
		// checks; the counted group sees it verified once, not n times.
		var honest, eager group.Counter
		mustRun(t, runCfg(g.WithCounter(&honest), 5))
		cfg := runCfg(g.WithCounter(&eager), 5)
		cfg.Strategies = make([]*strategy.Hooks, len(bids))
		cfg.Strategies[4] = strategy.EagerDisclosure()
		res := mustRun(t, cfg)
		m := uint64(len(bids[0]))
		for _, a := range res.Auctions {
			if a.Aborted || a.FirstPrice != 1 {
				t.Fatalf("auction %+v, want completed at first price 1", a)
			}
		}
		sigma := uint64(cfg.Bid.Sigma())
		if d := eager.MultiExps() - honest.MultiExps(); d != m {
			t.Errorf("%d more multi-exps for %d more disclosures, want %d", d, m, m)
		}
		if d := eager.MultiExpTerms() - honest.MultiExpTerms(); d != m*sigma {
			t.Errorf("%d more multi-exp terms, want %d (one sigma-term eq (13) check per disclosure)", d, m*sigma)
		}
	})
	t.Run("run/lazy verifier reads no shared verdict", func(t *testing.T) {
		// Agent 0 publishes a bad Lambda; the verifiers stepped before the
		// lazy agent 4 leave their eq (11) verdicts in the cache.
		cfg := runCfg(g, 6)
		cfg.Strategies = make([]*strategy.Hooks, len(bids))
		cfg.Strategies[0] = strategy.BogusLambda()
		cfg.Strategies[4] = strategy.LazyVerifier()
		res := mustRun(t, cfg)
		for j := range bids[0] {
			const guilty = "Lambda/Psi from agent 0 inconsistent"
			if r := res.views[1][j].AbortReason; !strings.HasPrefix(r, guilty) {
				t.Fatalf("task %d: verifier's abort %q, want %q", j, r, guilty)
			}
			if r := res.views[4][j].AbortReason; strings.HasPrefix(r, guilty) {
				t.Errorf("task %d: the lazy verifier aborted on the eq (11) verdict: %q", j, r)
			}
		}
	})
	t.Run("run/Parallelism 2", func(t *testing.T) {
		// Two auctions run at once, each with its own cache and its own
		// merged share checks on one group; under -race this proves
		// neither reaches into the other's state.
		cfg := runCfg(g, 7)
		cfg.TrueBids = [][]int{{1, 3, 2, 1}, {2, 1, 3, 3}, {3, 2, 1, 2}, {3, 3, 2, 1}, {2, 2, 3, 3}}
		cfg.Parallelism = 2
		res := mustRun(t, cfg)
		ref, err := mechanism.MinWork{}.Run(bidsToInstance(cfg.TrueBids))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Outcome.Equal(ref) {
			t.Errorf("outcome %+v differs from MinWork %+v", res.Auctions, ref)
		}
	})
}
