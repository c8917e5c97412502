package dmw

import (
	"math/big"
	"slices"

	"dmw/internal/commit"
	"dmw/internal/field"
	"dmw/internal/group"
)

// auctionPublic does an auction's public work once per distinct input:
// Gamma tables, the verdicts of equations (11) and (13), the resolutions
// of (12) and the winner of (14). Keys compare the identity of the input
// objects, never their values, so an equivocator's distinct objects get
// distinct entries and every receiver's verdict stays its own. Run's
// auction steps its agents on one goroutine and owns one, so it takes no
// lock; the coalescer sees only share requests. It is nil under CountOps
// and in sessions, where every request is computed.
type auctionPublic struct {
	tables      []keyed[[]*commit.Commitments, *commit.GammaTable]
	checks      []keyed[checkKey, error]
	resolutions []keyed[[]*big.Int, verdict]
	winners     []keyed[winnerKey, verdict]
}

type keyed[K, V any] struct {
	key K
	val V
}

func find[K, V any](list []keyed[K, V], same func(K) bool) (v V, ok bool) {
	for _, e := range list {
		if same(e.key) {
			return e.val, true
		}
	}
	return v, false
}

type verdict struct {
	v   int
	err error
}

// checkKey names a verdict on agent k's published values against the
// commitments behind table: (lambda, psi) by equation (11), leaving out
// agent exclude, or the disclosed vector f with psi by equation (13).
type checkKey struct {
	table       *commit.GammaTable
	k, exclude  int
	lambda, psi *big.Int
	f           []*big.Int
}

type winnerKey struct {
	disclosers []int
	rows       [][]*big.Int
}

// table returns the Gamma table over comms: the cached one when comms is
// pointer-equal to its vector, a new one otherwise.
func (p *auctionPublic) table(g *group.Group, comms []*commit.Commitments, powers [][]*big.Int) (*commit.GammaTable, error) {
	if p == nil {
		return commit.NewGammaTable(g, comms, powers)
	}
	if t, ok := find(p.tables, func(c []*commit.Commitments) bool { return slices.Equal(c, comms) }); ok {
		return t, nil
	}
	comms = slices.Clone(comms) // the key, and what the table reads
	t, err := commit.NewGammaTable(g, comms, powers)
	if err == nil {
		p.tables = append(p.tables, keyed[[]*commit.Commitments, *commit.GammaTable]{comms, t})
	}
	return t, err
}

// check returns the verdict key names: verify's, once per key.
func (p *auctionPublic) check(key checkKey, verify func() error) error {
	if p == nil {
		return verify()
	}
	err, ok := find(p.checks, func(c checkKey) bool {
		return c.table == key.table && c.k == key.k && c.exclude == key.exclude &&
			c.lambda == key.lambda && c.psi == key.psi && slices.Equal(c.f, key.f)
	})
	if !ok {
		err = verify()
		key.f = slices.Clone(key.f)
		p.checks = append(p.checks, keyed[checkKey, error]{key, err})
	}
	return err
}

// checkLambdaPsi is t.VerifyLambdaPsi, once per key.
func (p *auctionPublic) checkLambdaPsi(t *commit.GammaTable, k int, lambda, psi *big.Int, exclude int) error {
	return p.check(checkKey{t, k, exclude, lambda, psi, nil}, func() error { return t.VerifyLambdaPsi(k, lambda, psi, exclude) })
}

// checkDisclosure is commit.VerifyDisclosure of discloser k's vector f;
// t is the table over comms.
func (p *auctionPublic) checkDisclosure(g *group.Group, t *commit.GammaTable, comms []*commit.Commitments,
	powers []*big.Int, k int, f []*big.Int, psi *big.Int) error {
	return p.check(checkKey{t, k, -1, nil, psi, f}, func() error { return commit.VerifyDisclosure(g, comms, powers, f, psi) })
}

// resolve is r.Resolve, once per vector of objects.
func (p *auctionPublic) resolve(g *group.Group, r *commit.Resolver, lambdas []*big.Int) (int, error) {
	if p == nil {
		return r.Resolve(g, lambdas)
	}
	v, ok := find(p.resolutions, func(l []*big.Int) bool { return slices.Equal(l, lambdas) })
	if !ok {
		v.v, v.err = r.Resolve(g, lambdas)
		p.resolutions = append(p.resolutions, keyed[[]*big.Int, verdict]{slices.Clone(lambdas), v})
	}
	return v.v, v.err
}

// winner is commit.IdentifyWinner, once per discloser list and the
// disclosers' vectors of objects.
func (p *auctionPublic) winner(f *field.Field, alphas []*big.Int, disclosers []int, disclosed map[int][]*big.Int) (int, error) {
	if p == nil {
		return commit.IdentifyWinner(f, alphas, disclosers, disclosed)
	}
	rows := make([][]*big.Int, len(disclosers))
	for i, k := range disclosers {
		rows[i] = disclosed[k]
	}
	v, ok := find(p.winners, func(w winnerKey) bool {
		return slices.Equal(w.disclosers, disclosers) && slices.EqualFunc(w.rows, rows, slices.Equal[[]*big.Int])
	})
	if !ok {
		v.v, v.err = commit.IdentifyWinner(f, alphas, disclosers, disclosed)
		p.winners = append(p.winners, keyed[winnerKey, verdict]{winnerKey{slices.Clone(disclosers), rows}, v})
	}
	return v.v, v.err
}
