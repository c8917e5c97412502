package dmw_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dmw/internal/audit"
	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/group"
)

// TestRecordReplaysExactly: a run replays from its seed. Two runs of one
// configuration with Record set save byte-identical transcripts, claims
// in the order the run produced them (agent order: Phase IV is one
// lockstep round), whether the auctions run one at a time or in
// parallel, through the fleet-wide coalescer.
func TestRecordReplaysExactly(t *testing.T) {
	const n, m = 5, 3
	w := []int{1, 2, 3}
	g := group.MustSharedFor(group.PresetTest64)
	verifier := commit.NewCoalescer(g, 0, 0, nil)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			save := func() []byte {
				res, err := dmw.Run(dmw.RunConfig{
					Params: g.Params(), Group: g,
					Bid:      bidcode.Config{W: w, C: 0, N: n},
					TrueBids: randomBids(n, m, w, 1),
					Seed:     1, Parallelism: par, Record: true, Verifier: verifier,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := audit.Save(&buf, g.Params(), res.Transcript); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			first := save()
			for i := 0; i < 4; i++ {
				if !bytes.Equal(save(), first) {
					t.Fatalf("run %d saved a different transcript than run 0", i+1)
				}
			}
		})
	}
}

func randomBids(n, m int, w []int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, m)
		for j := range out[i] {
			out[i][j] = w[rng.Intn(len(w))]
		}
	}
	return out
}
