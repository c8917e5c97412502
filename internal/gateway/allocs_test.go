package gateway

import "testing"

// TestAllocBudgetRelayPool pins the relay arena's steady state: once a
// buffer has grown to its working size, a get/fill/release cycle by its
// single holder recycles it — at most one incidental allocation per
// cycle, never a fresh buffer.
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
