// Package slo turns declared latency objectives into multi-window
// burn-rate signals. An objective is a quantile bound over a budget
// window — "p99<250ms@30d" reads "99% of requests complete within
// 250ms, measured over a rolling 30 days". The error budget is the
// complement (1% of requests may be slower); the burn rate over a
// window is the ratio of the observed bad fraction to that budget, so
// burn 1.0 spends the budget exactly at sustainable pace and burn 14.4
// over 5 minutes spends a 30-day budget in ~2 days.
//
// The Engine samples a live obs.HDR series periodically and answers
// burn-rate queries over the standard multi-window set (5m/1h/6h) by
// diffing cumulative snapshots — the same trick Prometheus' rate()
// plays, but in-process and available to /healthz without a metrics
// stack. Both daemons embed one: dmwd over its job-latency HDR, dmwgw
// over the exact merge of its per-backend HDRs. See
// docs/OBSERVABILITY.md.
package slo

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmw/internal/obs"
)

// Windows is the multi-window burn-rate set, ordered short to long.
// The thresholds follow the SRE-workbook fast/slow-burn alert pairing
// for a 30-day budget: the short windows catch fast burns (page-worthy
// in minutes), the 6h window catches slow leaks.
var Windows = []struct {
	D         time.Duration
	Name      string
	Threshold float64
}{
	{5 * time.Minute, "5m", 14.4},
	{time.Hour, "1h", 6},
	{6 * time.Hour, "6h", 1},
}

// Objective is one parsed latency SLO.
type Objective struct {
	// Raw is the spec text, used verbatim as the metrics label value.
	Raw string
	// Quantile in (0,1): 0.99 for p99.
	Quantile float64
	// Threshold is the latency bound in seconds.
	Threshold float64
	// Window is the budget window the burn rates are scaled against.
	Window time.Duration
}

// Budget is the objective's error budget: the fraction of requests
// allowed to exceed the threshold.
func (o Objective) Budget() float64 { return 1 - o.Quantile }

// Parse decodes a comma-separated objective list of the form
// "p99<250ms@30d,p999<2s@30d". Quantiles: p50, p90, p95, p99, p999.
// Durations take ms/s/m/h suffixes (threshold) and m/h/d (window).
// An empty spec parses to nil — SLOs are opt-in.
func Parse(spec string) ([]Objective, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Objective
	for _, part := range strings.Split(spec, ",") {
		o, err := parseOne(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

func parseOne(s string) (Objective, error) {
	fail := func(why string) (Objective, error) {
		return Objective{}, fmt.Errorf("slo: %q: %s (want e.g. p99<250ms@30d)", s, why)
	}
	if !strings.HasPrefix(s, "p") {
		return fail("missing quantile")
	}
	rest := s[1:]
	lt := strings.IndexByte(rest, '<')
	if lt < 1 {
		return fail("missing '<'")
	}
	qDigits := rest[:lt]
	qv, err := strconv.Atoi(qDigits)
	if err != nil || qv <= 0 {
		return fail("bad quantile digits")
	}
	// p99 → 0.99, p999 → 0.999: the digit string is the decimal part.
	q := float64(qv) / pow10(len(qDigits))
	if q <= 0 || q >= 1 {
		return fail("quantile out of (0,1)")
	}
	rest = rest[lt+1:]
	at := strings.IndexByte(rest, '@')
	if at < 1 || at == len(rest)-1 {
		return fail("missing '@window'")
	}
	thr, err := parseSeconds(rest[:at])
	if err != nil || thr <= 0 {
		return fail("bad threshold duration")
	}
	win, err := parseWindow(rest[at+1:])
	if err != nil || win <= 0 {
		return fail("bad window duration")
	}
	return Objective{Raw: s, Quantile: q, Threshold: thr, Window: win}, nil
}

func pow10(n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

func parseSeconds(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}

// parseWindow accepts time.ParseDuration syntax plus a 'd' (day)
// suffix, which budget windows are usually quoted in.
func parseWindow(s string) (time.Duration, error) {
	if strings.HasSuffix(s, "d") {
		days, err := strconv.ParseFloat(s[:len(s)-1], 64)
		if err != nil {
			return 0, err
		}
		return time.Duration(days * 24 * float64(time.Hour)), nil
	}
	return time.ParseDuration(s)
}

// WindowBurn is one window's burn rate for one objective.
type WindowBurn struct {
	Name string        `json:"window"`
	D    time.Duration `json:"-"`
	Burn float64       `json:"burn"`
	// Count is the number of observations the window saw; a burn of 0
	// over 0 observations is "no data", not "healthy".
	Count int64 `json:"count"`
}

// Report is one objective's current verdict.
type Report struct {
	Objective Objective    `json:"-"`
	Raw       string       `json:"objective"`
	Windows   []WindowBurn `json:"windows"`
	// Quantile is the objective's quantile estimated over the full
	// history (what the SLO's percentile currently is, not just
	// whether it burns).
	Quantile float64 `json:"quantile_seconds"`
	// Breaching mirrors the paired-window alert rule: fast burn (5m
	// AND 1h over their thresholds) or slow burn (6h over 1.0).
	Breaching bool `json:"breaching"`
}

type sample struct {
	at   time.Time
	snap obs.HDRSnapshot
}

// Engine computes burn rates for a set of objectives over one HDR
// series. Sample must be called periodically (the owning daemon's
// housekeeping loop does); queries interpolate against the newest
// sample at least as old as each window, falling back to the
// zero-at-start baseline while history is still short — so gauges are
// live (if noisy) immediately after boot rather than NaN for six
// hours.
type Engine struct {
	objectives []Objective
	source     func() obs.HDRSnapshot

	mu      sync.Mutex
	samples []sample // ascending by at; pruned past the longest window
	started time.Time
}

// NewEngine builds an engine over source, which must return cumulative
// snapshots of one logical series (a live HDR, or a merge of several).
// Returns nil when objectives is empty: a nil *Engine is inert — its
// methods are nil-safe no-ops — so callers don't branch.
func NewEngine(objectives []Objective, source func() obs.HDRSnapshot) *Engine {
	if len(objectives) == 0 {
		return nil
	}
	return &Engine{objectives: objectives, source: source, started: time.Now()}
}

// Objectives returns the engine's objective set (nil-safe).
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	return e.objectives
}

// Sample records the series' current cumulative state at now and
// prunes samples older than the longest burn window (plus slack).
func (e *Engine) Sample(now time.Time) {
	if e == nil {
		return
	}
	snap := e.source()
	horizon := Windows[len(Windows)-1].D + 10*time.Minute
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples = append(e.samples, sample{at: now, snap: snap})
	cut := 0
	for cut < len(e.samples)-1 && now.Sub(e.samples[cut].at) > horizon {
		cut++
	}
	e.samples = e.samples[cut:]
}

// baselineAt returns the cumulative snapshot to diff against for a
// window ending at now: the newest sample at least window old, or the
// zero snapshot when the process is younger than the window.
func (e *Engine) baselineAt(now time.Time, window time.Duration) obs.HDRSnapshot {
	cutoff := now.Add(-window)
	var base obs.HDRSnapshot
	for _, s := range e.samples {
		if s.at.After(cutoff) {
			break
		}
		base = s.snap
	}
	return base
}

// Reports computes every objective's burn rates and verdict at now.
// Nil-safe: a nil engine reports nothing.
func (e *Engine) Reports(now time.Time) []Report {
	if e == nil {
		return nil
	}
	cur := e.source()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Report, 0, len(e.objectives))
	for _, o := range e.objectives {
		r := Report{Objective: o, Raw: o.Raw, Quantile: cur.Quantile(o.Quantile)}
		over := make(map[string]bool, len(Windows))
		for _, w := range Windows {
			delta := cur.Sub(e.baselineAt(now, w.D))
			wb := WindowBurn{Name: w.Name, D: w.D, Count: delta.Count}
			if delta.Count > 0 {
				wb.Burn = delta.FracAbove(o.Threshold) / o.Budget()
			}
			over[w.Name] = wb.Burn > w.Threshold
			r.Windows = append(r.Windows, wb)
		}
		r.Breaching = (over["5m"] && over["1h"]) || over["6h"]
		out = append(out, r)
	}
	return out
}

// WriteMetrics renders the burn-rate gauges in the repo's Prometheus
// text dialect under the given daemon prefix ("dmwd" or "dmwgw"):
//
//	dmwd_slo_burn_rate{objective="p99<250ms@30d",window="5m"} 0.42
//	dmwd_slo_quantile_seconds{objective="p99<250ms@30d"} 0.0131
//	dmwd_slo_compliant{objective="p99<250ms@30d"} 1
//
// Label values are the raw objective specs; their alphabet (p, digits,
// '<', '@', unit letters) needs no escaping. Nil-safe no-op.
func (e *Engine) WriteMetrics(w io.Writer, prefix string, now time.Time) {
	if e == nil {
		return
	}
	for _, r := range e.Reports(now) {
		for _, wb := range r.Windows {
			fmt.Fprintf(w, "%s_slo_burn_rate{objective=%q,window=%q} %s\n",
				prefix, r.Raw, wb.Name, strconv.FormatFloat(wb.Burn, 'g', 6, 64))
		}
		fmt.Fprintf(w, "%s_slo_quantile_seconds{objective=%q} %s\n",
			prefix, r.Raw, strconv.FormatFloat(r.Quantile, 'g', 6, 64))
		compliant := 1
		if r.Breaching {
			compliant = 0
		}
		fmt.Fprintf(w, "%s_slo_compliant{objective=%q} %d\n", prefix, r.Raw, compliant)
	}
}

// Verdict is the /healthz-facing summary of one objective.
type Verdict struct {
	Objective string  `json:"objective"`
	Status    string  `json:"status"` // "ok" | "breaching"
	Burn5m    float64 `json:"burn_5m"`
	Burn1h    float64 `json:"burn_1h"`
	Burn6h    float64 `json:"burn_6h"`
	Quantile  float64 `json:"quantile_seconds"`
}

// Verdicts condenses Reports into the healthz JSON shape. Nil-safe.
func (e *Engine) Verdicts(now time.Time) []Verdict {
	reports := e.Reports(now)
	if len(reports) == 0 {
		return nil
	}
	out := make([]Verdict, 0, len(reports))
	for _, r := range reports {
		v := Verdict{Objective: r.Raw, Status: "ok", Quantile: r.Quantile}
		if r.Breaching {
			v.Status = "breaching"
		}
		for _, wb := range r.Windows {
			switch wb.Name {
			case "5m":
				v.Burn5m = wb.Burn
			case "1h":
				v.Burn1h = wb.Burn
			case "6h":
				v.Burn6h = wb.Burn
			}
		}
		out = append(out, v)
	}
	return out
}
