package dmw_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestTranscriptsPinned pins "same program": the SHA-256 of audit.Save
// for fixed seeds at the two benchmark shapes. Every drawn coefficient,
// commitment, share and published value feeds the transcript, so a
// change that draws one byte more or less from an agent's stream, or
// computes any value differently, changes these hashes. A change meant
// to leave the protocol's values alone must leave them alone.
func TestTranscriptsPinned(t *testing.T) {
	shapes := []struct {
		name   string
		preset string
		n, m   int
		w      []int
		want   [3]string // seeds 1..3
	}{
		{"Test64", group.PresetTest64, 5, 3, []int{1, 2, 3}, [3]string{
			"ec6bbcd0f607aa2faedfd288416f48e527725d21a60ce9d6a19b6e8c022bb799",
			"ea3a48023ae564d9f45058a8d4b802d64402ad6a8a537d62d3f564c3889e19d1",
			"789495cc5981fa9a7f162585bace475a4506562bbca781356a43280ff08c96aa",
		}},
		{"Sim256", group.PresetSim256, 12, 1, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, [3]string{
			"bb5dc779c2ced394b51d252f1e44db2e44e4742a78c6b143b569407fbb74aa39",
			"42dec210c5926c492f3f72071e01547bff34c49990618d6556907f8c5bed3cb2",
			"4cbe94b3d6149cbe8a702d8089e5ee79b39ae6f99092c8b833a42839f904f9da",
		}},
	}
	for _, sh := range shapes {
		g := group.MustSharedFor(sh.preset)
		verifier := commit.NewCoalescer(g, 0, 0, nil)
		for i, want := range sh.want {
			seed := int64(i + 1)
			res, err := dmw.Run(dmw.RunConfig{
				Params: g.Params(), Group: g,
				Bid:      bidcode.Config{W: sh.w, C: 0, N: sh.n},
				TrueBids: randomBids(sh.n, sh.m, sh.w, seed),
				Seed:     seed, Parallelism: 1, Record: true, Verifier: verifier,
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", sh.name, seed, err)
			}
			var buf bytes.Buffer
			if err := audit.Save(&buf, g.Params(), res.Transcript); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s seed %d: transcript sha256 %s, pinned %s", sh.name, seed, got, want)
			}
		}
	}
}
