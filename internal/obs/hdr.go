package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file is the metrics layer's one histogram: by default an
// HDR-style log-bucketed histogram whose relative error is bounded by
// the bucket growth factor (~5% at 24 buckets per decade), plus
// exemplars — each tail bucket remembers the most recent request that
// landed in it, so a p999 outlier on /metrics resolves to a concrete
// X-Request-Id and a fetchable /v1/jobs/{id}/trace. The exposition is
// the Prometheus text contract (cumulative buckets, le last, +Inf ==
// _count; TestMetricsHistogramContract pins it against a parser), which
// is what lets the gateway's le-keyed fleet aggregation sum histogram
// series from replicas. Because every latency HDR in the fleet shares
// one bucket geometry, cross-replica merge is EXACT: bucket counts add
// with no re-binning error.

// hdrBucketsPerDecade fixes the default geometry: 24 log-spaced buckets
// per decade gives a growth factor g = 10^(1/24) ~ 1.101, and the
// geometric-midpoint quantile estimate is off by at most sqrt(g)-1 ~
// 4.9% relative — the "≈5% relative error" the observability docs
// promise.
const hdrBucketsPerDecade = 24

// defaultHDRBounds spans 1µs to ~2 minutes; anything slower lands in
// the +Inf overflow bucket. Computed once: every HDR instance shares
// the slice, which is what makes snapshots mergeable by index.
var defaultHDRBounds = LogBuckets(1e-6, 120, hdrBucketsPerDecade)

// LogBuckets returns ascending histogram upper bounds spaced
// geometrically with perDecade bounds per decade, each rounded to three
// significant digits (so the `le` labels stay short and stable under
// %g), covering [min, max]. The rounding never collapses adjacent
// bounds at 24/decade spacing because the ~10% step dwarfs the 0.5%
// rounding granularity.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		panic(fmt.Sprintf("obs: LogBuckets(%g, %g, %d): want 0 < min < max, perDecade >= 1", min, max, perDecade))
	}
	var out []float64
	k := int(math.Ceil(float64(perDecade)*math.Log10(min) - 1e-9))
	for {
		b := roundSig3(math.Pow(10, float64(k)/float64(perDecade)))
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
		if b >= max {
			return out
		}
		k++
	}
}

// roundSig3 rounds v to three significant decimal digits via the
// decimal string: parsing the formatted value back guarantees that a
// later %g prints exactly that short decimal, not a float artifact
// like 0.0012099999.
func roundSig3(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 3, 64), 64)
	return r
}

// Exemplar is the request identity a tail bucket retains. Stored whole
// behind one atomic pointer so readers never see a torn half-update.
type Exemplar struct {
	RequestID string
	JobID     string
	Tenant    string
	Backend   string
	Traced    bool
	// Value is the observed latency in the histogram's unit (seconds
	// everywhere in this repo).
	Value float64
}

// HDR is a bucketed histogram with atomic counters, per-bucket exemplar
// slots, and a cumulative text exposition. The zero value is not
// usable; call NewHDR or NewHDRBounds.
type HDR struct {
	// bounds is shared across instances built from the same generator
	// call (see defaultHDRBounds) — snapshot merge relies on identity
	// of geometry, checked by length.
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	// sumMicro accumulates in millionths of the unit, so _sum stays
	// integral under concurrent adds.
	sumMicro atomic.Int64
	// ex[i] is the most recent exemplar observed into bucket i (last
	// writer wins; tail buckets see few writes, so "most recent" is
	// also "representative").
	ex []atomic.Pointer[Exemplar]
}

// NewHDR builds an HDR over the default µs→minutes latency geometry.
// All fleet latency series use this constructor so their snapshots
// merge exactly.
func NewHDR() *HDR { return NewHDRBounds(defaultHDRBounds) }

// NewHDRBounds builds an HDR over explicit ascending upper bounds, for
// series whose unit is not a latency (batch sizes) or whose hand-picked
// le labels dashboards already key on; latency series should use
// NewHDR. bounds is retained, not copied. Panics on unordered bounds:
// that is a programming error, not an operational condition.
func NewHDRBounds(bounds []float64) *HDR {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: HDR bounds not ascending: %v", bounds))
		}
	}
	return &HDR{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
		ex:      make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// bucketIndex returns the bucket for value v: the first bound >= v, or
// the +Inf overflow slot — so a value equal to a bound lands in that
// bound's bucket (le is inclusive). Binary search: the default geometry
// has ~200 buckets.
func (h *HDR) bucketIndex(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value without exemplar identity.
func (h *HDR) Observe(v float64) {
	i := h.bucketIndex(v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(int64(v * 1e6))
}

// ObserveEx records one value and stamps ex (when non-nil) as the
// bucket's exemplar. The exemplar's Value field is overwritten with v.
// The caller must not mutate ex after the call.
func (h *HDR) ObserveEx(v float64, ex *Exemplar) {
	i := h.bucketIndex(v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumMicro.Add(int64(v * 1e6))
	if ex != nil {
		ex.Value = v
		h.ex[i].Store(ex)
	}
}

// Count returns the number of observations.
func (h *HDR) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *HDR) Sum() float64 { return float64(h.sumMicro.Load()) / 1e6 }

// Quantile estimates the q-quantile (0 < q <= 1) of everything observed
// so far, within ~5% relative error. Returns 0 when empty.
func (h *HDR) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Snapshot captures the current cumulative state. Counts are read
// bucket-by-bucket without a global lock, so a snapshot taken under
// concurrent Observe calls may be off by in-flight increments — fine
// for burn-rate math, which only ever looks at deltas of ~minutes.
func (h *HDR) Snapshot() HDRSnapshot {
	s := HDRSnapshot{
		bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumMicro = h.sumMicro.Load()
	return s
}

// Write renders the exposition for series name with optional constant
// labels (e.g. `phase="bidding"`; empty for none) — cumulative buckets,
// le label last so the gateway's bucket-aware aggregation sort works,
// +Inf == _count, fixed-point _sum — then appends
// exemplar lines as Prometheus-style comments:
//
//	# exemplar name{le="0.512",request_id="req-..",job_id="job-..",tenant="acme",traced="1"} 0.497
//
// Comment lines are invisible to every parser in the repo (they all
// skip '#'), so adding them cannot break the pinned contract tests.
// Only tail buckets — those at or above the current p90 bucket — emit
// exemplars, keeping the exposition small and the exemplars pointed at
// outliers rather than the bulk of the distribution.
func (h *HDR) Write(w io.Writer, name, labels string) {
	snap := h.Snapshot()
	snap.Write(w, name, labels)
	counts, total := snap.Counts, snap.Count
	if total == 0 {
		return
	}
	// Tail = buckets strictly above the one holding the p90 rank; the
	// straddling bucket is the bulk of the distribution, not the tail.
	rank := int64(math.Ceil(0.90 * float64(total)))
	var seen int64
	tailStart := len(counts)
	for i, c := range counts {
		seen += c
		if seen >= rank {
			tailStart = i + 1
			break
		}
	}
	emitted := false
	for i := tailStart; i < len(counts); i++ {
		if h.writeExemplarLine(w, name, labels, counts, i) {
			emitted = true
		}
	}
	if !emitted {
		// Degenerate distribution (everything in one bucket): still
		// surface the topmost identity so an exemplar chase never
		// dead-ends on a quiet series.
		for i := len(counts) - 1; i >= 0; i-- {
			if h.writeExemplarLine(w, name, labels, counts, i) {
				return
			}
		}
	}
}

// writeExemplarLine renders bucket i's exemplar comment when the bucket
// is populated and has one; reports whether a line was written.
func (h *HDR) writeExemplarLine(w io.Writer, name, labels string, counts []int64, i int) bool {
	if counts[i] == 0 {
		return false
	}
	ex := h.ex[i].Load()
	if ex == nil {
		return false
	}
	le := "+Inf"
	if i < len(h.bounds) {
		le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
	}
	var b strings.Builder
	b.WriteString(ExemplarPrefix)
	b.WriteString(name)
	b.WriteByte('{')
	if labels != "" {
		b.WriteString(labels)
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "le=%q", le)
	writeExemplarLabel(&b, "request_id", ex.RequestID)
	writeExemplarLabel(&b, "job_id", ex.JobID)
	writeExemplarLabel(&b, "tenant", ex.Tenant)
	writeExemplarLabel(&b, "backend", ex.Backend)
	traced := "0"
	if ex.Traced {
		traced = "1"
	}
	b.WriteString(`,traced="` + traced + `"`)
	b.WriteString("} ")
	b.WriteString(strconv.FormatFloat(ex.Value, 'g', 6, 64))
	b.WriteByte('\n')
	io.WriteString(w, b.String())
	return true
}

// writeExemplarLabel appends ,key="value" when value is non-empty,
// sanitized to the metrics-safe alphabet shared by request IDs, job
// IDs, and tenant IDs (anything else becomes '_' — backend names come
// from operator flags and are the only field that can need it).
func writeExemplarLabel(b *strings.Builder, key, value string) {
	if value == "" {
		return
	}
	b.WriteByte(',')
	b.WriteString(key)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		c := value[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	b.WriteByte('"')
}

// HDRSnapshot is an immutable copy of an HDR's counters. Snapshots from
// HDRs that share a geometry support exact merge (Add) and delta (Sub)
// — the primitives behind the gateway fleet rollup and the SLO
// burn-rate windows.
type HDRSnapshot struct {
	bounds   []float64
	Counts   []int64
	Count    int64
	SumMicro int64
}

// Sum returns the snapshot's value sum in the histogram unit.
func (s HDRSnapshot) Sum() float64 { return float64(s.SumMicro) / 1e6 }

// Write renders the bucket, _sum and _count lines (cumulative buckets,
// le last, +Inf == _count, fixed-point _sum) — the one writer: HDR.Write
// is this plus exemplar lines, which snapshots do not carry, so the
// fleet rollup's merged replica snapshots render exactly like a live
// histogram. A zero snapshot emits only the +Inf bucket,
// which every parser in the repo accepts.
func (s HDRSnapshot) Write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, ub := range s.bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, cum)
	}
	if len(s.Counts) > len(s.bounds) {
		cum += s.Counts[len(s.bounds)]
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, strconv.FormatFloat(s.Sum(), 'f', 6, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
}

// Sub returns the delta snapshot s - base: the observations recorded
// after base was taken. Both snapshots must share a geometry; a zero
// base (HDRSnapshot{}) subtracts nothing, standing in for "process
// start".
func (s HDRSnapshot) Sub(base HDRSnapshot) HDRSnapshot {
	if base.Counts == nil {
		return s
	}
	if len(base.Counts) != len(s.Counts) {
		panic("obs: HDRSnapshot.Sub: geometry mismatch")
	}
	out := HDRSnapshot{
		bounds:   s.bounds,
		Counts:   make([]int64, len(s.Counts)),
		Count:    s.Count - base.Count,
		SumMicro: s.SumMicro - base.SumMicro,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - base.Counts[i]
	}
	return out
}

// Add returns the exact merge of two snapshots with the same geometry.
// A zero operand passes the other through, so reducing a replica list
// can start from HDRSnapshot{}.
func (s HDRSnapshot) Add(o HDRSnapshot) HDRSnapshot {
	if s.Counts == nil {
		return o
	}
	if o.Counts == nil {
		return s
	}
	if len(o.Counts) != len(s.Counts) {
		panic("obs: HDRSnapshot.Add: geometry mismatch")
	}
	out := HDRSnapshot{
		bounds:   s.bounds,
		Counts:   make([]int64, len(s.Counts)),
		Count:    s.Count + o.Count,
		SumMicro: s.SumMicro + o.SumMicro,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) by locating the bucket
// holding the target rank and returning the geometric midpoint of its
// bounds — the estimator whose worst-case relative error is
// sqrt(growth)-1 (~4.9% at the default geometry). Returns 0 when the
// snapshot is empty. The +Inf overflow bucket reports the largest
// finite bound: the estimate saturates rather than going infinite.
func (s HDRSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.bounds) == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i >= len(s.bounds) {
				return s.bounds[len(s.bounds)-1]
			}
			hi := s.bounds[i]
			lo := hi
			if i > 0 {
				lo = s.bounds[i-1]
			}
			return math.Sqrt(lo * hi)
		}
	}
	return s.bounds[len(s.bounds)-1]
}

// FracAbove returns the fraction of observations that landed strictly
// above threshold, at bucket granularity: the bucket containing the
// threshold itself counts as "good", so the answer can understate
// badness by at most one bucket's width (~10%  of the threshold value,
// not of the fraction). This is the bad-event numerator of SLO burn
// rates.
func (s HDRSnapshot) FracAbove(threshold float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	idx := sort.SearchFloat64s(s.bounds, threshold)
	var bad int64
	for i := idx + 1; i < len(s.Counts); i++ {
		bad += s.Counts[i]
	}
	return float64(bad) / float64(s.Count)
}

// ExemplarPrefix opens every exemplar comment line. Parsers that
// forward or extract exemplars key on it; ordinary exposition parsers
// skip it like any other '#' comment.
const ExemplarPrefix = "# exemplar "

// ParseExemplars extracts the exemplars a Write call rendered for the
// named series from a text exposition. The inverse of the comment
// format above; the tail-observability tests of dmwd and dmwgw use it
// to chase an exemplar from /metrics to /v1/jobs/{id}/trace.
func ParseExemplars(exposition, name string) []Exemplar {
	prefix := ExemplarPrefix + name + "{"
	var out []Exemplar
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		var ex Exemplar
		ex.Value, _ = strconv.ParseFloat(strings.TrimSpace(value), 64)
		for _, kv := range strings.Split(labels, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			v = strings.Trim(v, `"`)
			switch k {
			case "request_id":
				ex.RequestID = v
			case "job_id":
				ex.JobID = v
			case "tenant":
				ex.Tenant = v
			case "backend":
				ex.Backend = v
			case "traced":
				ex.Traced = v == "1"
			}
		}
		out = append(out, ex)
	}
	return out
}
