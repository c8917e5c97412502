package commit

import (
	"fmt"
	"math/big"

	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/poly"
)

// Resolver is the distributed degree resolution of equation (12), the one
// implementation the protocol engine and the offline auditor share. Given
// the published values Lambda_k = z1^{E(alpha_k)} of the summed
// e-polynomial E, it resolves the smallest candidate degree d whose first
// d+1 pseudonyms interpolate E to zero at the origin, checked as one
// (d+1)-term multi-exponentiation (a probe):
//
//	prod_{k<=d} Lambda_k^{rho_k} = 1,   rho = LagrangeAtZero(alpha_0..alpha_d)
//
// The probe is monotone in d, so the resolver bisects instead of scanning.
// Equation (11) binds every published Lambda to E, which has zero constant
// term and degree tau = sigma - y*: for every d >= tau the d+1 nodes
// determine E, so the probe is true; below tau it is true only when the
// interpolant's constant term vanishes by chance (probability ~1/q,
// PAPER.md P10). A lower-bound bisection over the u usable candidates
// therefore resolves what the ascending scan resolves, in at most
// ceil(log2(u+1)) probes instead of up to u. A chance success below tau
// breaks monotonicity, and then the two may resolve different degrees;
// every agent and the auditor run this same bisection, so they agree.
//
// A Resolver is read-only and safe for concurrent use.
type Resolver struct {
	cands []int
	n     int          // pseudonyms
	rhos  [][]*big.Int // rhos[d] over the first d+1 pseudonyms
}

// ResolverOver is the Resolver over Phase I's published data (field.Nodes)
// for the ascending candidate degrees cands, as
// bidcode.Config.DegreeCandidates returns them. It allocates only the
// Resolver.
func ResolverOver(cands []int, nodes field.Nodes) *Resolver {
	return &Resolver{cands: cands, n: len(nodes.Alphas), rhos: nodes.Rhos}
}

// Resolve returns the resolved degree of lambdas, one published value per
// pseudonym, nil where none is usable. A candidate d is usable when there
// are d+1 pseudonyms and lambdas[0..d] are all present; usability only
// shrinks as d grows, so the usable candidates are a prefix and the
// bisection runs over it. When no usable candidate passes, the error says
// why the next candidate cannot be tried, exactly as the ascending scan
// reports its first unusable candidate, and is poly.ErrDegreeUnresolved
// when every candidate was usable.
func (r *Resolver) Resolve(g *group.Group, lambdas []*big.Int) (int, error) {
	have, n := 0, r.n // leading present values, pseudonyms
	for have < len(lambdas) && have < n && lambdas[have] != nil {
		have++
	}
	u := 0
	for u < len(r.cands) && r.cands[u]+1 <= have {
		u++
	}
	lo, hi := 0, u
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		d := r.cands[mid]
		prod, err := g.MultiExp(lambdas[:d+1], r.rhos[d])
		if err != nil {
			return 0, err
		}
		if g.IsOne(prod) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	switch {
	case lo < u:
		return r.cands[lo], nil
	case u == len(r.cands):
		return 0, poly.ErrDegreeUnresolved
	case r.cands[u]+1 > n:
		return 0, fmt.Errorf("candidate degree %d needs %d nodes, have %d agents: %w",
			r.cands[u], r.cands[u]+1, n, poly.ErrDegreeUnresolved)
	default:
		return 0, fmt.Errorf("missing resolution input from agent %d: %w", have, poly.ErrDegreeUnresolved)
	}
}

// IdentifyWinner applies equation (14) for the engine and the auditor: the
// winner's f-polynomial has degree y*, so it interpolates to zero over the
// y*+1 disclosers' nodes; losers' do not (w.h.p.). rows[i][cand] is
// f_cand(alpha_k) as discloser k = disclosers[i] published it. Ties break
// to the smallest pseudonym; -1 means no match. All candidates share the
// nodes, so rho = LagrangeAtZero(alpha_disclosers) is taken once and each
// candidate costs the inner product sum_i rho_i rows[i][cand].
func IdentifyWinner(f *field.Field, alphas []*big.Int, disclosers []int, rows [][]*big.Int) (int, error) {
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
	for cand := range alphas {
		for i, row := range rows {
			vals[i] = row[cand]
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
