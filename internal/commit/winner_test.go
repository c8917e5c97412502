package commit

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"dmw/internal/bidcode"
	"dmw/internal/field"
	"dmw/internal/group"
	"dmw/internal/poly"
)

// refIdentifyWinner is equation (14) the way the auction and the auditor
// applied it before the rho vector was shared: one full interpolation at
// zero per candidate, smallest pseudonym first.
func refIdentifyWinner(t *testing.T, f *field.Field, alphas []*big.Int, disclosers []int, disclosed map[int][]*big.Int) int {
	t.Helper()
	for cand := range alphas {
		pts := make([]poly.Share, len(disclosers))
		for i, k := range disclosers {
			pts[i] = poly.Share{Node: alphas[k], Value: disclosed[k][cand]}
		}
		v, err := poly.InterpolateAtZero(f, pts)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() == 0 {
			return cand
		}
	}
	return -1
}

// TestIdentifyWinnerMatchesPerCandidateInterpolation is the property
// behind the shared rho vector: over random bid profiles, and over
// discloser sets that are the pseudonym prefix as well as the scattered
// sets replacement rounds produce, the inner-product form names the same
// winner as interpolating every candidate separately — ties to the
// smallest pseudonym, unreduced disclosed values, and the profile with no
// match (-1) included.
func TestIdentifyWinnerMatchesPerCandidateInterpolation(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	f := group.MustSharedFor(group.PresetTest64).Scalars()
	prefixSets, scatteredSets, winners, noMatch := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 4 + r.Intn(6)
		w := []int{1, 2, 3}
		alphas, err := bidcode.Pseudonyms(f, n)
		if err != nil {
			t.Fatal(err)
		}
		q := f.Q()

		// Every agent's f-polynomial has degree equal to its bid.
		fs := make([]*poly.Poly, n)
		minBid := w[len(w)-1]
		for i := range fs {
			y := w[r.Intn(len(w))]
			p, err := poly.NewRandomZeroConst(f, y, r)
			if err != nil {
				t.Fatal(err)
			}
			fs[i] = p
			if y < minBid {
				minBid = y
			}
		}
		// Usually interpolate over y*+1 nodes, as the protocol does;
		// sometimes over too few for anyone to match.
		needed := minBid + 1
		if r.Intn(6) == 0 {
			needed = minBid
		}
		disclosers := make([]int, needed)
		if r.Intn(2) == 0 {
			for i := range disclosers {
				disclosers[i] = i
			}
			prefixSets++
		} else {
			copy(disclosers, r.Perm(n)[:needed])
			sort.Ints(disclosers)
			scatteredSets++
		}
		disclosed := map[int][]*big.Int{}
		for _, k := range disclosers {
			row := make([]*big.Int, n)
			for cand := range row {
				row[cand] = fs[cand].Eval(alphas[k])
				if r.Intn(8) == 0 {
					row[cand].Add(row[cand], q) // passes equation (13), arrives unreduced
				}
			}
			disclosed[k] = row
		}

		rows := make([][]*big.Int, len(disclosers))
		for i, k := range disclosers {
			rows[i] = disclosed[k]
		}
		got, err := IdentifyWinner(f, alphas, disclosers, rows)
		if err != nil {
			t.Fatal(err)
		}
		want := refIdentifyWinner(t, f, alphas, disclosers, disclosed)
		if got != want {
			t.Fatalf("trial %d (n=%d, disclosers %v): rho-vector winner %d, per-candidate interpolation %d", trial, n, disclosers, got, want)
		}
		if got >= 0 {
			winners++
			if fs[got].Degree() != minBid {
				t.Fatalf("trial %d: winner %d bid %d, lowest bid is %d", trial, got, fs[got].Degree(), minBid)
			}
		} else {
			noMatch++
		}
	}
	if prefixSets == 0 || scatteredSets == 0 || winners == 0 || noMatch == 0 {
		t.Errorf("cases not all exercised: %d prefix sets, %d scattered sets, %d winners, %d without a match",
			prefixSets, scatteredSets, winners, noMatch)
	}
}
