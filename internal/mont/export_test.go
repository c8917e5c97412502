package mont

import "math/big"

// NewGeneric builds a context that runs the generic CIOS loop whatever
// the modulus width: the oracle the fixed-width kernels are checked
// against.
func NewGeneric(p *big.Int) *Ctx { return newCtx(p, false) }

// Fixed reports whether m runs a fixed-width kernel.
func (m *Ctx) Fixed() bool { return m.kern != kernGeneric }
