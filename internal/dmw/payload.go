package dmw

import (
	"math/big"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/transport"
)

// Message payloads, one per protocol step. Each implements
// transport.Sizer so the network can account bytes for experiment
// T1-comm.
//
// The engine sends the payloads that do not fit in an interface word as
// pointers into storage its auction holds and never writes again, so a
// send allocates nothing. Package wire decodes the form the engine sends
// and encodes either.

// SharePayload carries the four polynomial evaluations of step II.2.
type SharePayload struct {
	Share bidcode.Share
}

// WireSize implements transport.Sizer.
func (p SharePayload) WireSize() int { return p.Share.WireSize() }

// CommitmentsPayload carries the O/Q/R vectors of step II.3.
type CommitmentsPayload struct {
	C *commit.Commitments
}

// WireSize implements transport.Sizer.
func (p CommitmentsPayload) WireSize() int {
	if p.C == nil {
		return 0
	}
	return p.C.WireSize()
}

// LambdaPsiPayload carries the published pair of step III.2 (equation
// (10)).
type LambdaPsiPayload struct {
	Lambda, Psi *big.Int
}

// WireSize implements transport.Sizer.
func (p LambdaPsiPayload) WireSize() int { return bigLen(p.Lambda) + bigLen(p.Psi) }

// DisclosurePayload carries the winner-identification f-shares of step
// III.3: F[l] is f_l(alpha_k) as received (or computed) by the disclosing
// agent k.
type DisclosurePayload struct {
	F []*big.Int
}

// WireSize implements transport.Sizer.
func (p DisclosurePayload) WireSize() int {
	n := 0
	for _, v := range p.F {
		n += bigLen(v)
	}
	return n
}

// SecondPricePayload carries the winner-excluded pair of step III.4
// (equation (15)).
type SecondPricePayload struct {
	Lambda, Psi *big.Int
}

// WireSize implements transport.Sizer.
func (p SecondPricePayload) WireSize() int { return bigLen(p.Lambda) + bigLen(p.Psi) }

// PaymentClaimPayload carries an agent's Phase IV payment vector.
type PaymentClaimPayload struct {
	Payments []int64
}

// WireSize implements transport.Sizer.
func (p PaymentClaimPayload) WireSize() int { return 8 * len(p.Payments) }

// AbortPayload announces a detected protocol violation.
type AbortPayload struct {
	Reason string
}

// WireSize implements transport.Sizer.
func (p AbortPayload) WireSize() int { return len(p.Reason) }

func bigLen(v *big.Int) int {
	if v == nil {
		return 0
	}
	return (v.BitLen() + 7) / 8
}

// Interface conformance checks.
var (
	_ transport.Sizer = SharePayload{}
	_ transport.Sizer = CommitmentsPayload{}
	_ transport.Sizer = LambdaPsiPayload{}
	_ transport.Sizer = DisclosurePayload{}
	_ transport.Sizer = SecondPricePayload{}
	_ transport.Sizer = PaymentClaimPayload{}
	_ transport.Sizer = AbortPayload{}
)
