package commit

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/group"
)

// lambdaPsiOracle is equation (11) as the n x n table of Gamma values
// checked it: prod_{l != exclude} Gamma_{k,l}, one sigma-term
// multi-exponentiation per agent, against lambda*psi.
func lambdaPsiOracle(g *group.Group, comms []*Commitments, powers []*big.Int, lambda, psi *big.Int, exclude int) error {
	if lambda == nil || psi == nil {
		return errors.New("nil lambda or psi")
	}
	prod := big.NewInt(1)
	for l, c := range comms {
		if l == exclude {
			continue
		}
		if c == nil {
			return errors.New("missing commitments")
		}
		gamma, err := c.Gamma(g, powers)
		if err != nil {
			return err
		}
		prod = g.Mul(prod, gamma)
	}
	if !g.Equal(prod, g.Mul(lambda, psi)) {
		return ErrLambdaPsiCheck
	}
	return nil
}

// disclosureOracle is equation (13) over one Phi value per sender:
// z1^{sum f} * psi = prod_l Phi_{k,l}.
func disclosureOracle(g *group.Group, comms []*Commitments, powers, fShares []*big.Int, psi *big.Int) error {
	if len(fShares) != len(comms) || psi == nil {
		return errors.New("malformed disclosure")
	}
	f := g.Scalars()
	sum := new(big.Int)
	for _, s := range fShares {
		if s == nil {
			return errors.New("nil disclosed share")
		}
		sum = f.Add(sum, s)
	}
	prod := big.NewInt(1)
	for _, c := range comms {
		if c == nil {
			return errors.New("missing commitments")
		}
		phi, err := c.Phi(g, powers)
		if err != nil {
			return err
		}
		prod = g.Mul(prod, phi)
	}
	if !g.Equal(g.Mul(g.Pow1(sum), psi), prod) {
		return ErrDisclosureCheck
	}
	return nil
}

// sameVerdict fails t unless got and want are both nil, or both errors
// with the same identity check sentinel (or neither sentinel).
func sameVerdict(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) ||
		errors.Is(got, ErrLambdaPsiCheck) != errors.Is(want, ErrLambdaPsiCheck) ||
		errors.Is(got, ErrDisclosureCheck) != errors.Is(want, ErrDisclosureCheck) {
		t.Errorf("%s: column products say %v, per-Gamma oracle %v", what, got, want)
	}
}

// TestColumnProductsMatchGammaOracle checks equations (11) and (13) on
// column products against the per-Gamma oracles, through the package
// functions and through one table per input, at every pseudonym and
// excluded agent. The inputs are honest values, a tampered Lambda, Psi or
// f-share, an equivocated commitments object, a nil commitments entry, a
// nil element, and elements moved out of [0, p) (or an exponent out of
// [0, q)) without changing their residue.
func TestColumnProductsMatchGammaOracle(t *testing.T) {
	g, cfg, alphas := testSetup(t)
	n, sigma := cfg.N, cfg.Sigma()
	p, q, z1 := g.Params().P, g.Params().Q, g.Params().Z1
	powers := make([][]*big.Int, n)
	for k, a := range alphas {
		powers[k] = PowersOf(g.Scalars(), a, sigma)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		bids := make([]int, n)
		encs := make([]*bidcode.EncodedBid, n)
		comms := make([]*Commitments, n)
		for i := range bids {
			bids[i] = cfg.W[rng.Intn(len(cfg.W))]
			enc, err := bidcode.Encode(cfg, bids[i], g.Scalars(), rng)
			if err != nil {
				t.Fatal(err)
			}
			encs[i] = enc
			if comms[i], err = New(g, enc, sigma); err != nil {
				t.Fatal(err)
			}
		}
		j, e := rng.Intn(n), rng.Intn(sigma) // the agent and element a case touches
		withComm := func(edit func(c *Commitments)) []*Commitments {
			out := append([]*Commitments(nil), comms...)
			if edit == nil {
				out[j] = nil
				return out
			}
			c := comms[j].Clone()
			edit(c)
			out[j] = c
			return out
		}
		type input struct {
			name   string
			comms  []*Commitments
			powers func(k int) []*big.Int
			pair   func(lambda, psi *big.Int) (*big.Int, *big.Int)
			f      func(f []*big.Int) // edits agent k's disclosed vector
			fails  bool               // some check must fail; none may otherwise
		}
		honestPowers := func(k int) []*big.Int { return powers[k] }
		same := func(lambda, psi *big.Int) (*big.Int, *big.Int) { return lambda, psi }
		inputs := []input{
			{"honest", comms, honestPowers, same, nil, false},
			{"tampered lambda", comms, honestPowers, func(l, s *big.Int) (*big.Int, *big.Int) { return g.Mul(l, z1), s }, nil, true},
			{"tampered psi", comms, honestPowers, func(l, s *big.Int) (*big.Int, *big.Int) { return l, g.Mul(s, z1) }, nil, true},
			{"tampered f-share", comms, honestPowers, same, func(f []*big.Int) { f[j] = new(big.Int).Add(f[j], big.NewInt(1)) }, true},
			{"equivocated commitments", withComm(func(c *Commitments) {
				c.Q[e], c.R[e] = g.Mul(c.Q[e], z1), g.Mul(c.R[e], z1)
			}), honestPowers, same, nil, true},
			{"nil commitments", withComm(nil), honestPowers, same, nil, true},
			{"nil element", withComm(func(c *Commitments) { c.Q[e], c.R[e] = nil, nil }), honestPowers, same, nil, true},
			{"elements >= p", withComm(func(c *Commitments) {
				c.Q[e], c.R[e] = new(big.Int).Add(c.Q[e], p), new(big.Int).Add(c.R[e], p)
			}), honestPowers, func(l, s *big.Int) (*big.Int, *big.Int) { return new(big.Int).Add(l, p), s }, nil, false},
			{"negative elements", withComm(func(c *Commitments) {
				c.Q[e], c.R[e] = new(big.Int).Sub(c.Q[e], p), new(big.Int).Sub(c.R[e], p)
			}), honestPowers, func(l, s *big.Int) (*big.Int, *big.Int) { return l, new(big.Int).Sub(s, p) }, nil, false},
			{"exponent >= q", comms, func(k int) []*big.Int {
				pw := append([]*big.Int(nil), powers[k]...)
				pw[e] = new(big.Int).Add(pw[e], q)
				return pw
			}, same, nil, false},
		}
		for _, in := range inputs {
			pw := make([][]*big.Int, n)
			for k := range pw {
				pw[k] = in.powers(k)
			}
			tab, err := NewGammaTable(g, in.comms, pw)
			if err != nil {
				t.Fatal(err)
			}
			failed := false
			for k, alpha := range alphas {
				for _, exclude := range []int{-1, j, (j + 1) % n} {
					lambda, psi := in.pair(lambdaPsiAt(g, encs, alpha, exclude))
					want := lambdaPsiOracle(g, in.comms, pw[k], lambda, psi, exclude)
					failed = failed || want != nil
					what := in.name + " eq (11)"
					sameVerdict(t, what, VerifyLambdaPsi(g, in.comms, pw[k], lambda, psi, exclude), want)
					sameVerdict(t, what+" table", tab.VerifyLambdaPsi(k, lambda, psi, exclude), want)
				}
				_, psi := in.pair(lambdaPsiAt(g, encs, alpha, -1))
				fvec := make([]*big.Int, n)
				for l, enc := range encs {
					fvec[l] = enc.F.Eval(alpha)
				}
				if in.f != nil {
					in.f(fvec)
				}
				want := disclosureOracle(g, in.comms, pw[k], fvec, psi)
				failed = failed || want != nil
				sameVerdict(t, in.name+" eq (13)", VerifyDisclosure(g, in.comms, pw[k], fvec, psi), want)
				sameVerdict(t, in.name+" eq (13) table", tab.VerifyDisclosure(k, fvec, psi), want)
			}
			if failed != in.fails {
				t.Errorf("%s: some check failed = %v, want %v", in.name, failed, in.fails)
			}
		}
	}
}
