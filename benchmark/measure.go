package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// A measured window is cut into slices of sliceLen. Every rate, latency and
// per-op cost is computed once per slice, beside the host-speed probe's
// reading for that slice, and the run reports the metric's fitted value at
// the reference host speed (adjusted, probe.go). Half a second is short
// enough to resolve the host's changes of speed, which come every second or
// few, and long enough to hold 25 jobs of the slowest workload. The stack's
// own periodic work (janitor sweeps, WAL snapshots, interval fsyncs, GC
// cycles) falls in some slices and not others; the median over the slices
// keeps it in proportion.
const (
	sliceLen = 500 * time.Millisecond
	// minSlices is what a window too short to be a measurement (the smoke
	// test) is cut into.
	minSlices = 5
)

// sample is one completed (or failed) op as its caller saw it. Offsets are
// relative to the start of the measured window; warm-up ops have negative
// ends and fall outside every slice.
type sample struct {
	kind opKind
	ok   bool
	// start is when the latency clock started: the call time in a closed
	// loop, the INTENDED send time in the open loop (so a stalled fleet is
	// charged for the ops it delayed).
	start, end time.Duration
	// lag is how late the open-loop generator actually sent the op.
	lag time.Duration
	// queueWaitMS and runMS are the server's own decomposition of the job
	// (JobView), zero for ops that carry no single job.
	queueWaitMS, runMS float64
}

func (s sample) latencyMS() float64 { return float64(s.end-s.start) / float64(time.Millisecond) }

// resources is a point-in-time reading of the process-wide counters the
// per-op cost metrics are differences of.
type resources struct {
	cpu        time.Duration // user+sys
	gcCPU      float64       // seconds of GC cpu (runtime/metrics)
	mallocs    uint64
	allocBytes uint64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// processCPU is the process's user+sys cpu time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	r := resources{
		cpu:        processCPU(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return r
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one measured interval: its samples plus the resource readings
// taken at each of its n+1 slice boundaries.
type window struct {
	slice   time.Duration
	n       int // number of slices
	samples []sample
	marks   []resources // n+1
	// bounds are the offsets at which the marks were actually read (a
	// sleeping goroutine wakes a little late). Samples are assigned to
	// slices by these, so a slice's op count and its resource delta cover
	// exactly the same interval.
	bounds []time.Duration // n+1
	// probeMS is the host-speed reading of each slice: the probeLevel of
	// the probe bursts begun in it (0 when there were none).
	probeMS []float64
	// goroutinesPeak is the largest runtime.NumGoroutine seen at a boundary.
	goroutinesPeak int
}

// newWindow cuts a window of length d into slices.
func newWindow(d time.Duration) *window {
	n := max(int(d/sliceLen), minSlices)
	return &window{slice: d / time.Duration(n), n: n, marks: make([]resources, n+1), bounds: make([]time.Duration, n+1)}
}

// setProbe files the probe's readings (offsets relative to this window's
// start) under the slices they were taken in.
func (w *window) setProbe(readings []probeReading) {
	per := make([][]float64, w.n)
	for _, r := range readings {
		if i := w.sliceOf(r.at); i >= 0 {
			per[i] = append(per[i], r.ms)
		}
	}
	w.probeMS = make([]float64, w.n)
	for i, v := range per {
		w.probeMS[i] = probeLevel(v)
	}
}

// sampleBoundaries blocks until the window ends, reading the resource
// counters at every slice boundary. It runs on the caller's goroutine.
func (w *window) sampleBoundaries(start time.Time) {
	for i := 0; i <= w.n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * w.slice)))
		w.bounds[i] = time.Since(start)
		w.marks[i] = readResources()
		if n := runtime.NumGoroutine(); n > w.goroutinesPeak {
			w.goroutinesPeak = n
		}
	}
}

// sliceOf returns the slice an op that ended at offset end belongs to, or
// -1 when it ended outside the window.
func (w *window) sliceOf(end time.Duration) int {
	if end < w.bounds[0] || end >= w.bounds[w.n] {
		return -1
	}
	i := sort.Search(w.n, func(i int) bool { return end < w.bounds[i+1] })
	return i
}

// stat is a metric value with the slices behind it and their spread.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Median and IQR describe the slices (or repetitions) behind Value; -compare calls a difference unresolved when the IQR is wider
	// than the bound.
	Median float64   `json:"median"`
	IQR    float64   `json:"iqr"`
	Slices []float64 `json:"slices,omitempty"`
	// N is the number of raw samples behind the value (0 when not
	// sample-based).
	N int `json:"n,omitempty"`
	// Slope is the metric's fitted sensitivity to host speed (adjusted); 0
	// when none was fitted and Value is the plain median.
	Slope float64 `json:"slope,omitempty"`
}

// medianOf reports the median of repeated measurements (boots, slices). A
// slice in which nothing completed reads 0 and is left out.
func medianOf(unit string, vals []float64) stat {
	var have []float64
	for _, v := range vals {
		if v > 0 {
			have = append(have, v)
		}
	}
	q1, med, q3 := quartiles(have)
	return stat{Value: med, Unit: unit, Median: med, IQR: q3 - q1, Slices: vals}
}

// scalar wraps a single measured value.
func scalar(unit string, v float64) stat { return stat{Value: v, Unit: unit} }

// quartiles returns (Q1, median, Q3) by the same rule as Python's
// statistics.quantiles(v, n=4) (exclusive method), which is what the
// driver uses for its spread check.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile is the exact order statistic (nearest rank) of raw samples;
// no histogram buckets are involved.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// kindSet selects op kinds.
type kindSet uint16

func kinds(ks ...opKind) kindSet {
	var s kindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

func (s kindSet) has(k opKind) bool { return s&(1<<k) != 0 }

// latencies returns the sorted latencies (ms) of the successful samples of
// the selected kinds that completed in slice i (i < 0: the whole window).
func (w *window) latencies(sel kindSet, i int) []float64 {
	var out []float64
	for _, s := range w.samples {
		if at := w.sliceOf(s.end); s.ok && sel.has(s.kind) && at >= 0 && (i < 0 || at == i) {
			out = append(out, s.latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

// slicePercentile is the per-slice percentile of the selected kinds'
// latencies, adjusted to the reference host speed. A slice without a sample
// reads 0 and is left out.
func (w *window) slicePercentile(sel kindSet, p float64) stat {
	vals := make([]float64, w.n)
	n := 0
	for i := range vals {
		l := w.latencies(sel, i)
		n += len(l)
		vals[i] = percentile(l, p)
	}
	return adjusted("ms", vals, w.probeMS, n)
}

// completed returns, per slice, the successful ops that completed there.
func (w *window) completed() []int {
	ok := make([]int, w.n)
	for _, s := range w.samples {
		if i := w.sliceOf(s.end); i >= 0 && s.ok {
			ok[i]++
		}
	}
	return ok
}

func sum(v []int) (t int) {
	for _, x := range v {
		t += x
	}
	return t
}

// endToEndMetrics computes the gated metrics of one untraced window.
func (w *window) endToEndMetrics() map[string]stat {
	ok := w.completed()
	total := sum(ok)
	rate := make([]float64, w.n)
	for i, n := range ok {
		rate[i] = float64(n) / (w.bounds[i+1] - w.bounds[i]).Seconds()
	}
	single := kinds(opJob)
	// cpu per successful op, slice by slice (0 where nothing completed).
	cpu := make([]float64, w.n)
	for i, n := range ok {
		if n > 0 {
			cpu[i] = float64(w.marks[i+1].cpu-w.marks[i].cpu) / float64(time.Millisecond) / float64(n)
		}
	}
	// An allocation count does not depend on how fast the host runs, so it
	// is taken over the whole window, where the ops that straddle a slice
	// boundary do not matter; fifths of the window give its spread.
	fifths := make([]float64, 0, minSlices)
	for f := 0; f < minSlices; f++ {
		lo, hi := f*w.n/minSlices, (f+1)*w.n/minSlices
		if done := sum(ok[lo:hi]); done > 0 {
			fifths = append(fifths, float64(w.marks[hi].mallocs-w.marks[lo].mallocs)/float64(done))
		}
	}
	allocs := medianOf("count", fifths)
	allocs.Value = float64(w.marks[w.n].mallocs-w.marks[0].mallocs) / float64(max(total, 1))
	return map[string]stat{
		"ops_per_s":         adjusted("1/s", rate, w.probeMS, total),
		"op_latency_p50_ms": w.slicePercentile(single, 0.50),
		"op_latency_p75_ms": w.slicePercentile(single, 0.75),
		"cpu_ms_per_op":     adjusted("ms", cpu, w.probeMS, 0),
		"allocs_per_op":     allocs,
	}
}
