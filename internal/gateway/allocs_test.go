package gateway

import (
	"net/http"
	"testing"

	"dmw/internal/wire"
)

// TestAllocBudgetRelayPool pins the relay arena's steady state: once a
// buffer has grown to its working size, a get/fill/release cycle
// recycles it — at most one incidental allocation per cycle, never a
// fresh buffer.
func TestAllocBudgetRelayPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	p := newRelayPool()
	payload := make([]byte, 4096)
	// Warm the pool so the measured cycles reuse a grown buffer.
	warm := p.get()
	warm.bb.Write(payload)
	p.release(warm)
	avg := testing.AllocsPerRun(100, func() {
		buf := p.get()
		buf.bb.Write(payload)
		p.release(buf)
	})
	if avg > 1 {
		t.Errorf("relay pool cycle: %.1f allocs/op, want ≤1 (buffer must recycle)", avg)
	}
	if misses := p.misses.Load(); misses > 2 {
		t.Errorf("relay pool missed %d times across warmed cycles, want ≤2", misses)
	}
}

// TestAllocBudgetBatchFanBack bounds the coalescer's fan-back decode:
// splitting a 32-item result frame into per-waiter answers costs the
// decoded item slice — item bodies alias the pooled response buffer, so
// the budget stays flat in item count.
func TestAllocBudgetBatchFanBack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	items := make([]wire.ResultItem, 32)
	for i := range items {
		items[i] = wire.ResultItem{Status: 202, Body: []byte(`{"id":"a","state":"queued"}`)}
	}
	frame := wire.AppendResultFrame(nil, items)
	h := make(http.Header, 1)
	h.Set("Content-Type", wire.ContentTypeResultFrame)
	res := &attemptResult{status: http.StatusOK, header: h, body: frame}
	avg := testing.AllocsPerRun(100, func() {
		answers, ok := decodeBatchAnswers(res, len(items))
		if !ok || len(answers) != len(items) {
			t.Fatal("fan-back decode failed")
		}
	})
	if avg > 4 {
		t.Errorf("batch fan-back decode: %.1f allocs/op, budget 4 (slices only; bodies must alias)", avg)
	}
}
