package commit

import (
	"io"
	"math/big"
	"time"

	"dmw/internal/group"
)

// Coalescer is a thin wrapper over VerifyBatch that no product code calls:
// it survives only because the benchmark harness (benchmark/layers.go)
// compiles against NewCoalescer and VerifyShares. Each VerifyShares call
// is one VerifyBatch pass over its own request.
type Coalescer struct {
	g       *group.Group
	observe func(items int)
}

// NewCoalescer wraps g. observe (optional) is called once per VerifyShares
// call with the number of share items it covered. The duration and the
// int are ignored.
func NewCoalescer(g *group.Group, _ time.Duration, _ int, observe func(items int)) *Coalescer {
	return &Coalescer{g: g, observe: observe}
}

// VerifyShares is VerifyBatch over one request: BatchVerifyShares' results.
func (c *Coalescer) VerifyShares(alphaPowers []*big.Int, items []BatchItem, rng io.Reader) error {
	if c.observe != nil {
		c.observe(len(items))
	}
	return VerifyBatch(c.g, []Request{{AlphaPowers: alphaPowers, Items: items, Rng: rng}})[0]
}
