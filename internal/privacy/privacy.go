// Package privacy implements the collusion attack against DMW's
// secret-sharing layer, used to validate (and probe the limits of)
// Theorem 10: "DMW protects the anonymity of the losing agents and the
// privacy of their bids when fewer than c agents collude".
//
// A coalition pools the shares its members received from a target agent
// in step II.2 — evaluations of the target's e and f polynomials at the
// coalition's pseudonyms — and runs polynomial degree resolution on each:
//
//   - the e-polynomial has degree sigma - y; resolving it needs
//     sigma - y + 1 >= c + 2 points (since y <= w_k and
//     sigma = w_k + c + 1), so a coalition of at most c agents never
//     recovers a bid this way, and lower (better) bids need strictly
//     larger coalitions — exactly the claim of Theorem 10;
//   - the f-polynomial has degree y, so a coalition of k agents recovers
//     any bid y <= k-1. Low bids are therefore more exposed through f
//     than Theorem 10's e-side analysis suggests; experiment E-priv
//     quantifies this observed limitation.
package privacy

import (
	"fmt"
	"math/big"

	"dmw/internal/bidcode"
	"dmw/internal/field"
	"dmw/internal/poly"
)

// NotRecovered marks a bid the coalition could not determine.
const NotRecovered = -1

// AttackResult reports what a coalition learned about one target agent.
type AttackResult struct {
	// TrueBid is the target's actual bid (ground truth for scoring).
	TrueBid int
	// ViaE is the bid recovered by resolving the target's e-polynomial,
	// or NotRecovered.
	ViaE int
	// ViaF is the bid recovered by resolving the target's f-polynomial,
	// or NotRecovered.
	ViaF int
}

// Recovered reports whether the coalition learned the bid through either
// polynomial.
func (r AttackResult) Recovered() bool {
	return r.ViaE != NotRecovered || r.ViaF != NotRecovered
}

// Attack simulates a coalition holding the target's shares at the given
// pseudonyms. cfg must be the auction's published configuration and enc
// the target's encoded bid (the simulation's ground-truth handle on the
// secret polynomials; the coalition only uses their evaluations at its
// own pseudonyms, exactly what it would hold in a real execution).
func Attack(f *field.Field, cfg bidcode.Config, enc *bidcode.EncodedBid, coalition []*big.Int) (AttackResult, error) {
	if len(coalition) == 0 {
		return AttackResult{}, fmt.Errorf("privacy: empty coalition")
	}
	res := AttackResult{TrueBid: enc.Y, ViaE: NotRecovered, ViaF: NotRecovered}
	sigma := cfg.Sigma()

	// Shares the coalition holds.
	held := enc.SharesFor(coalition)
	eShares := make([]poly.Share, len(coalition))
	fShares := make([]poly.Share, len(coalition))
	for i, a := range coalition {
		eShares[i] = poly.Share{Node: a, Value: held[i].E}
		fShares[i] = poly.Share{Node: a, Value: held[i].F}
	}

	// e-polynomial: candidate degrees sigma - w, feasible ones only.
	var eCands []int
	for i := len(cfg.W) - 1; i >= 0; i-- {
		if d := sigma - cfg.W[i]; d+1 <= len(coalition) {
			eCands = append(eCands, d)
		}
	}
	if len(eCands) > 0 {
		if d, err := poly.ResolveDegree(f, eShares, eCands); err == nil {
			res.ViaE = sigma - d
		}
	}

	// f-polynomial: candidate degrees w themselves.
	var fCands []int
	for _, w := range cfg.W {
		if w+1 <= len(coalition) {
			fCands = append(fCands, w)
		}
	}
	if len(fCands) > 0 {
		if d, err := poly.ResolveDegree(f, fShares, fCands); err == nil {
			res.ViaF = d
		}
	}
	return res, nil
}

// MinCoalitionViaE returns the smallest coalition size that can recover a
// bid y through the e-polynomial: sigma - y + 1.
func MinCoalitionViaE(cfg bidcode.Config, y int) int {
	return cfg.Sigma() - y + 1
}

// MinCoalitionViaF returns the smallest coalition size that can recover a
// bid y through the f-polynomial: y + 1.
func MinCoalitionViaF(y int) int { return y + 1 }
