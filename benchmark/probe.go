package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// The reference box is two vCPUs of a shared host, and its speed is not its
// own: under load, a fixed burst of arithmetic takes 0.55 ms for seconds at a
// time and 0.85 ms for the next few (README, "The host-speed probe"), with no
// steal time reported. A compute-bound workload follows it — proto-crypto
// costs 28 cpu-ms per job in one state and 40 in the other — so a run's plain
// numbers say more about which state the host was in than about the program,
// and ten runs of one commit spread by 15–25 % of their median.
//
// The probe makes that state a measured covariate. While the load runs, one
// goroutine performs the same fixed, allocation-free burst every probeEvery
// and records how long it took. Each slice of the window then has a
// host-speed reading beside its metric values, and the run reports every
// time-based metric as its fitted value at the reference speed probeRefMS
// (adjusted, below) instead of its plain median. The bursts take 2–4 % of
// one core; they are part of the harness, like the in-process load
// generator, and are there on every run of every commit.
const (
	probeEvery = 20 * time.Millisecond
	// probeIters sizes one burst to half a millisecond on the idle reference
	// box.
	probeIters = 24000
	// probeRefMS is the host speed every adjusted metric is reported at, as
	// the duration of one burst: the reference box under load with its
	// neighbours quiet. The quiet end, not the middle, because a run on a
	// mostly quiet host sees too few disturbed slices to fit a slope worth
	// extrapolating with, while a run on a disturbed host sees plenty of
	// both. It is a constant of the benchmark, not of the machine: elsewhere
	// the adjusted numbers are "at the speed at which the burst takes this
	// long".
	probeRefMS = 0.55
)

// probeSink keeps the compiler from discarding the burst.
var probeSink uint64

// probeBurst is the fixed work: 4×4-limb schoolbook products — the 64×64→128
// multiplies and carry chains of the group arithmetic, sixteen independent
// products per step, in registers, without an allocation. That the products
// are independent matters: what the host takes away is instruction
// throughput, not latency. A dependent chain of the same multiplies runs at
// the same speed whatever the neighbours do (steady to ±10 % over 40 s in
// which this burst kept switching between two levels 1.6× apart), and would
// measure nothing.
func probeBurst() {
	a := [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d}
	b := [4]uint64{3, 5, 7, 11}
	for i := 0; i < probeIters; i++ {
		var t [8]uint64
		for j := 0; j < 4; j++ {
			var carry uint64
			for k := 0; k < 4; k++ {
				hi, lo := bits.Mul64(a[k], b[j])
				var c uint64
				lo, c = bits.Add64(lo, t[j+k], 0)
				hi += c
				lo, c = bits.Add64(lo, carry, 0)
				t[j+k], carry = lo, hi+c
			}
			t[j+4] = carry
		}
		b = [4]uint64{t[0] ^ t[4], t[1] ^ t[5], t[2] ^ t[6], t[3] ^ t[7]}
	}
	probeSink += b[0]
}

// probeReading is one burst: when it started (offset from the window's
// start) and how long it took.
type probeReading struct {
	at time.Duration
	ms float64
}

// probe is a running host-speed sampler.
type probe struct {
	readings []probeReading
	stop     chan struct{}
	done     chan struct{}
}

// startProbe begins sampling; offsets are relative to origin.
func startProbe(origin time.Time) *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			probeBurst()
			p.readings = append(p.readings, probeReading{t0.Sub(origin), float64(time.Since(t0)) / float64(time.Millisecond)})
		}
	}()
	return p
}

// finish stops the sampler and returns its readings in time order.
func (p *probe) finish() []probeReading {
	close(p.stop)
	<-p.done
	return p.readings
}

// probeOnce is a single reading outside a window (set-up).
func probeOnce() float64 {
	t0 := time.Now()
	probeBurst()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// probeLevel condenses the bursts of one slice into its host-speed reading:
// their mean, leaving out the bursts that a GC pause or the scheduler
// interrupted (more than twice the slice's fastest). The mean, not the
// median: the host changes state within a slice too, what the slice's ops
// paid is the time-average of those states, and a median jumps from one
// state to the other where the mean moves in proportion.
func probeLevel(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	fastest := ms[0]
	for _, v := range ms {
		fastest = min(fastest, v)
	}
	sum, n := 0.0, 0
	for _, v := range ms {
		if v <= 2*fastest {
			sum += v
			n++
		}
	}
	return sum / float64(n)
}

// adjusted reports the value a time-based metric takes at the reference host
// speed. vals[i] is the metric over slice i and probeMS[i] its host-speed
// reading (probeLevel). The two are related, in logarithms, by a line
// whose slope is the metric's sensitivity to host speed — 0.5–0.7 for a
// compute-bound workload, 0.1–0.4 for one that mostly waits on memory,
// syscalls or the scheduler — and that slope is fitted per run and per
// metric, never assumed: the Theil–Sen estimator (median of the pairwise
// slopes), which one stalled slice cannot move. The reported value is the
// median, over the slices, of the slice's value carried along that line to
// probeRefMS; IQR is the spread of those carried values. When the host did not
// change speed during the run there is no slope to fit; the run then reports
// its plain median, which is all it knows.
func adjusted(unit string, vals, probeMS []float64, n int) stat {
	st := medianOf(unit, vals)
	st.N = n
	var lk, ly []float64
	for i, v := range vals {
		if v > 0 && i < len(probeMS) && probeMS[i] > 0 {
			lk = append(lk, math.Log(probeMS[i]))
			ly = append(ly, math.Log(v))
		}
	}
	slope, ok := theilSen(lk, ly)
	if !ok {
		return st
	}
	ref := math.Log(probeRefMS)
	at := make([]float64, len(lk))
	for i := range lk {
		at[i] = math.Exp(ly[i] - slope*(lk[i]-ref))
	}
	q1, med, q3 := quartiles(at)
	st.Value, st.IQR, st.Slope = med, q3-q1, slope
	return st
}

// minProbeSpread is the least the host's speed must have varied within a run
// (distance between the 10th and 90th percentile slice readings, as a log
// ratio) for a slope to be fitted from it.
const minProbeSpread = 0.15

// theilSen returns the median of the slopes between all pairs of points.
func theilSen(x, y []float64) (float64, bool) {
	if len(x) < 8 {
		return 0, false
	}
	sx := append([]float64(nil), x...)
	sort.Float64s(sx)
	if sx[len(sx)*9/10]-sx[len(sx)/10] < minProbeSpread {
		return 0, false
	}
	var slopes []float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if dx := x[j] - x[i]; math.Abs(dx) > 1e-3 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	if len(slopes) == 0 {
		return 0, false
	}
	return median(slopes), true
}
