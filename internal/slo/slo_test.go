package slo

import (
	"strings"
	"testing"
	"time"

	"dmw/internal/obs"
)

func TestParse(t *testing.T) {
	objs, err := Parse("p99<250ms@30d, p999<2s@30d")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Quantile != 0.99 || objs[0].Threshold != 0.25 || objs[0].Window != 30*24*time.Hour {
		t.Fatalf("p99 parsed as %+v", objs[0])
	}
	if objs[1].Quantile != 0.999 || objs[1].Threshold != 2 {
		t.Fatalf("p999 parsed as %+v", objs[1])
	}
	if objs[0].Budget() < 0.0099 || objs[0].Budget() > 0.0101 {
		t.Fatalf("budget %g, want 0.01", objs[0].Budget())
	}

	if objs, err := Parse(""); err != nil || objs != nil {
		t.Fatalf("empty spec: %v, %v", objs, err)
	}
	for _, bad := range []string{"p99", "p99<250ms", "99<250ms@30d", "p0<1s@1d", "p99<x@30d", "p99<250ms@"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// TestEngineBurnAndVerdicts drives the engine with a synthetic
// timeline: a clean hour, then a burst of threshold violations, and
// checks that the short windows light up before the long one.
func TestEngineBurnAndVerdicts(t *testing.T) {
	objs, err := Parse("p99<100ms@30d")
	if err != nil {
		t.Fatal(err)
	}
	h := obs.NewHDR()
	e := NewEngine(objs, h.Snapshot)
	if e == nil {
		t.Fatal("engine nil for non-empty objectives")
	}

	now := time.Unix(1700000000, 0)
	// One clean hour: 100 good observations per 15s tick.
	for i := 0; i < 240; i++ {
		for j := 0; j < 100; j++ {
			h.Observe(0.010)
		}
		e.Sample(now)
		now = now.Add(15 * time.Second)
	}
	reports := e.Reports(now)
	if len(reports) != 1 || reports[0].Breaching {
		t.Fatalf("clean traffic breaching: %+v", reports)
	}

	// Five bad minutes: 30% of requests over threshold → burn ~30 on
	// the 5m window (budget 1%), far over the 14.4 page line; the 1h
	// window sees ~5m/60m of it.
	for i := 0; i < 20; i++ {
		for j := 0; j < 70; j++ {
			h.Observe(0.010)
		}
		for j := 0; j < 30; j++ {
			h.Observe(0.500)
		}
		e.Sample(now)
		now = now.Add(15 * time.Second)
	}
	reports = e.Reports(now)
	r := reports[0]
	burns := map[string]float64{}
	for _, wb := range r.Windows {
		burns[wb.Name] = wb.Burn
	}
	if burns["5m"] < 14.4 {
		t.Fatalf("5m burn %g, want > 14.4 (reports %+v)", burns["5m"], r)
	}
	if burns["6h"] > burns["5m"] {
		t.Fatalf("6h burn %g should dilute below 5m burn %g", burns["6h"], burns["5m"])
	}

	verdicts := e.Verdicts(now)
	if len(verdicts) != 1 || verdicts[0].Burn5m != burns["5m"] {
		t.Fatalf("verdicts %+v do not mirror reports", verdicts)
	}

	var sb strings.Builder
	e.WriteMetrics(&sb, "dmwd", now)
	out := sb.String()
	for _, want := range []string{
		`dmwd_slo_burn_rate{objective="p99<100ms@30d",window="5m"} `,
		`dmwd_slo_burn_rate{objective="p99<100ms@30d",window="1h"} `,
		`dmwd_slo_burn_rate{objective="p99<100ms@30d",window="6h"} `,
		`dmwd_slo_quantile_seconds{objective="p99<100ms@30d"} `,
		`dmwd_slo_compliant{objective="p99<100ms@30d"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("gauge exposition missing %q:\n%s", want, out)
		}
	}
	// Every line must be "name value" parseable — the gateway scrape
	// aggregator hard-fails otherwise.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.Count(line, " ") != 1 {
			t.Fatalf("unscrapable gauge line %q", line)
		}
	}
}

// TestEngineColdStart pins the zero-baseline behavior: minutes after
// boot, windows longer than the history diff against process start and
// still produce live burn numbers.
func TestEngineColdStart(t *testing.T) {
	objs, _ := Parse("p50<1ms@1d")
	h := obs.NewHDR()
	e := NewEngine(objs, h.Snapshot)
	now := time.Unix(1700000000, 0)
	for i := 0; i < 4; i++ { // one minute of history, all bad
		for j := 0; j < 10; j++ {
			h.Observe(0.5)
		}
		e.Sample(now)
		now = now.Add(15 * time.Second)
	}
	for _, wb := range e.Reports(now)[0].Windows {
		if wb.Count != 40 {
			t.Fatalf("window %s count %d, want all 40 observations", wb.Name, wb.Count)
		}
		if wb.Burn < 1.9 { // 100% bad over a 50% budget → burn 2
			t.Fatalf("window %s burn %g, want ~2", wb.Name, wb.Burn)
		}
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	if e = NewEngine(nil, nil); e != nil {
		t.Fatal("empty objectives should yield nil engine")
	}
	e.Sample(time.Now())
	if e.Reports(time.Now()) != nil || e.Verdicts(time.Now()) != nil || e.Objectives() != nil {
		t.Fatal("nil engine leaked data")
	}
	var sb strings.Builder
	e.WriteMetrics(&sb, "dmwd", time.Now())
	if sb.Len() != 0 {
		t.Fatal("nil engine wrote gauges")
	}
}
