package dmw

import (
	"math/big"
	"slices"

	"dmw/internal/commit"
	"dmw/internal/field"
	"dmw/internal/group"
)

// auctionPublic does an auction's public work once per distinct input:
// the verdicts of equations (11) and (13), the resolutions of (12) and the
// winner of (14). Keys compare the identity of the input objects, never
// their values, so an equivocator's distinct objects get distinct entries
// and every receiver's verdict stays its own. Run's auction steps its
// agents on one goroutine and owns one, so it takes no lock. It is nil
// under CountOps and in sessions, where every request is computed and
// every agent checks its own shares.
type auctionPublic struct {
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
// commitments comms: (lambda, psi) by equation (11), leaving out agent
// exclude, or the disclosed vector f with psi by equation (13). comms is
// the checking agent's vector, which no one writes after Phase II.
type checkKey struct {
	comms       []*commit.Commitments
	k, exclude  int
	lambda, psi *big.Int
	f           []*big.Int
}

type winnerKey struct {
	disclosers []int
	rows       [][]*big.Int
}

// check returns the verdict key names: verify's, once per key.
func (p *auctionPublic) check(key checkKey, verify func() error) error {
	if p == nil {
		return verify()
	}
	err, ok := find(p.checks, func(c checkKey) bool {
		return c.k == key.k && c.exclude == key.exclude && c.lambda == key.lambda && c.psi == key.psi &&
			slices.Equal(c.f, key.f) && slices.Equal(c.comms, key.comms)
	})
	if !ok {
		err = verify()
		key.f = slices.Clone(key.f)
		p.checks = append(p.checks, keyed[checkKey, error]{key, err})
	}
	return err
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
// disclosers' vectors of objects. The entry keeps both slices, which their
// caller does not write again.
func (p *auctionPublic) winner(f *field.Field, alphas []*big.Int, disclosers []int, rows [][]*big.Int) (int, error) {
	if p == nil {
		return commit.IdentifyWinner(f, alphas, disclosers, rows)
	}
	v, ok := find(p.winners, func(w winnerKey) bool {
		return slices.Equal(w.disclosers, disclosers) && slices.EqualFunc(w.rows, rows, slices.Equal[[]*big.Int])
	})
	if !ok {
		v.v, v.err = commit.IdentifyWinner(f, alphas, disclosers, rows)
		p.winners = append(p.winners, keyed[winnerKey, verdict]{winnerKey{disclosers, rows}, v})
	}
	return v.v, v.err
}
