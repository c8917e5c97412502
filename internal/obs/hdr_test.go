package obs

import (
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestLogBucketsShape(t *testing.T) {
	b := LogBuckets(1e-6, 120, 24)
	if len(b) < 150 || len(b) > 250 {
		t.Fatalf("unexpected bucket count %d", len(b))
	}
	if b[0] > 1.01e-6 {
		t.Fatalf("first bound %g does not cover 1µs", b[0])
	}
	if b[len(b)-1] < 120 {
		t.Fatalf("last bound %g does not cover 120s", b[len(b)-1])
	}
	growth := math.Pow(10, 1.0/24)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
		ratio := b[i] / b[i-1]
		// Rounding to 3 sig digits perturbs the ideal ratio by well
		// under 1% on either side.
		if ratio < growth*0.98 || ratio > growth*1.02 {
			t.Fatalf("ratio %g at %d strays from growth %g", ratio, i, growth)
		}
	}
	// Bounds must print short and stable under %g — the le label
	// contract the gateway's sort key relies on.
	for _, ub := range b {
		s := strconv.FormatFloat(ub, 'g', -1, 64)
		if len(strings.TrimLeft(strings.ReplaceAll(strings.ReplaceAll(s, ".", ""), "e-0", ""), "0")) > 8 {
			t.Fatalf("bound %v prints long: %q", ub, s)
		}
	}
}

// TestHDRWriteContract pins HDR's cumulative text contract on the
// default geometry: le-labeled cumulative buckets with le last, +Inf
// equal to _count, fixed-point _sum — and that exemplar lines are
// comments.
func TestHDRWriteContract(t *testing.T) {
	h := NewHDR()
	vals := []float64{0.0001, 0.001, 0.001, 0.25, 2.5, 500}
	for _, v := range vals {
		h.Observe(v)
	}
	var sb strings.Builder
	h.Write(&sb, "t_seconds", `phase="x"`)

	var lastCum, infCum, count int64 = -1, -1, -1
	var sawSum bool
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		switch {
		case strings.HasPrefix(name, "t_seconds_bucket{"):
			if !strings.Contains(name, `phase="x",le="`) || !strings.HasSuffix(name, `"}`) {
				t.Fatalf("le label not last in %q", name)
			}
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", line, err)
			}
			if strings.Contains(name, `le="+Inf"`) {
				infCum = n
			} else {
				if n < lastCum {
					t.Fatalf("non-cumulative bucket line %q after cum=%d", line, lastCum)
				}
				lastCum = n
			}
		case name == `t_seconds_sum{phase="x"}`:
			sawSum = true
			f, err := strconv.ParseFloat(value, 64)
			if err != nil || f < 502 || f > 503 {
				t.Fatalf("sum line %q, want ~502.75 (err=%v)", line, err)
			}
		case name == `t_seconds_count{phase="x"}`:
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("count value %q: %v", line, err)
			}
			count = n
		default:
			t.Fatalf("unexpected series %q", name)
		}
	}
	if infCum != int64(len(vals)) || count != int64(len(vals)) || !sawSum {
		t.Fatalf("+Inf=%d count=%d sum-seen=%v, want both %d and sum line", infCum, count, sawSum, len(vals))
	}
}

// TestHDRQuantileProperty is the ±1-bucket accuracy property test: for
// log-uniform random inputs, every estimated quantile must sit within
// one bucket (ratio <= growth^1.5, ~16%) of the exact order statistic.
func TestHDRQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		h := NewHDR()
		n := 2000 + rng.Intn(3000)
		vals := make([]float64, n)
		for i := range vals {
			// log-uniform over [2µs, 60s]
			v := math.Pow(10, -5.7+rng.Float64()*7.48)
			vals[i] = v
			h.Observe(v)
		}
		sort.Float64s(vals)
		growth := math.Pow(10, 1.0/24)
		maxRatio := math.Pow(growth, 1.5)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := vals[int(math.Ceil(q*float64(n)))-1]
			est := h.Quantile(q)
			ratio := est / exact
			if ratio < 1/maxRatio || ratio > maxRatio {
				t.Fatalf("trial %d q=%g: est %g vs exact %g (ratio %g beyond ±1 bucket %g)",
					trial, q, est, exact, ratio, maxRatio)
			}
		}
	}
}

// TestHDRConcurrentObserveWrite is the race test: writers hammer
// Observe/ObserveEx while a reader renders and snapshots concurrently.
// Run under -race (test-race and CI do).
func TestHDRConcurrentObserveWrite(t *testing.T) {
	h := NewHDR()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				v := rng.Float64() * 10
				if i%16 == 0 {
					h.ObserveEx(v, &Exemplar{RequestID: "req-racer", Tenant: "t", Traced: true})
				} else {
					h.Observe(v)
				}
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Write(io.Discard, "race_seconds", "")
				h.Snapshot().Quantile(0.99)
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := h.Count(); got != 4*5000 {
		t.Fatalf("count %d, want %d", got, 4*5000)
	}
}

// TestHDRSnapshotMergeExact pins that merging per-replica snapshots is
// exact: bucket-for-bucket equal to one histogram that saw everything.
func TestHDRSnapshotMergeExact(t *testing.T) {
	a, b, all := NewHDR(), NewHDR(), NewHDR()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		v := math.Pow(10, -6+rng.Float64()*8)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	merged := a.Snapshot().Add(b.Snapshot())
	want := all.Snapshot()
	if merged.Count != want.Count || merged.SumMicro != want.SumMicro {
		t.Fatalf("merged count/sum %d/%d, want %d/%d", merged.Count, merged.SumMicro, want.Count, want.SumMicro)
	}
	for i := range want.Counts {
		if merged.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, merged.Counts[i], want.Counts[i])
		}
	}
	// Delta is the inverse: merged minus a's part leaves b's part.
	delta := merged.Sub(a.Snapshot())
	bs := b.Snapshot()
	for i := range bs.Counts {
		if delta.Counts[i] != bs.Counts[i] {
			t.Fatalf("delta bucket %d: %d, want %d", i, delta.Counts[i], bs.Counts[i])
		}
	}
}

// TestHDRExemplarRoundTrip pins the exemplar comment format and its
// parser: a tail observation's identity must survive Write →
// ParseExemplars, and bulk (sub-p90) buckets must not leak exemplars.
func TestHDRExemplarRoundTrip(t *testing.T) {
	h := NewHDR()
	for i := 0; i < 990; i++ {
		h.ObserveEx(0.001, &Exemplar{RequestID: "req-bulk", JobID: "job-bulk"})
	}
	for i := 0; i < 10; i++ {
		h.ObserveEx(2.0, &Exemplar{
			RequestID: "req-slow", JobID: "job-slow", Tenant: "acme",
			Backend: "rep0", Traced: true,
		})
	}
	var sb strings.Builder
	h.Write(&sb, "t_seconds", "")
	got := ParseExemplars(sb.String(), "t_seconds")
	if len(got) != 1 {
		t.Fatalf("got %d exemplars (%v), want exactly the tail one", len(got), got)
	}
	ex := got[0]
	if ex.RequestID != "req-slow" || ex.JobID != "job-slow" || ex.Tenant != "acme" ||
		ex.Backend != "rep0" || !ex.Traced {
		t.Fatalf("exemplar fields mangled: %+v", ex)
	}
	if ex.Value < 1.9 || ex.Value > 2.1 {
		t.Fatalf("exemplar value %g, want ~2.0", ex.Value)
	}
	if strings.Contains(sb.String(), "req-bulk") {
		t.Fatalf("bulk bucket leaked an exemplar:\n%s", sb.String())
	}
}

func TestHDRFracAbove(t *testing.T) {
	h := NewHDR()
	for i := 0; i < 90; i++ {
		h.Observe(0.010)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	f := h.Snapshot().FracAbove(0.25)
	if f < 0.09 || f > 0.11 {
		t.Fatalf("FracAbove(0.25) = %g, want ~0.10", f)
	}
	if got := h.Snapshot().FracAbove(5); got != 0 {
		t.Fatalf("FracAbove(5) = %g, want 0", got)
	}
}
