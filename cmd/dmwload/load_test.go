package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"dmw/internal/slo"
)

// TestLatencySmoke is the CI latency gate (`make latency-smoke`): a
// short open-loop dmwload run against a real 2-replica in-process
// dmwgw fleet. It asserts the full observability chain in one pass —
// the report parses and carries finite coordinated-omission-free
// quantiles, the burn-rate gauges are live on the fleet exposition,
// and at least one tail exemplar resolves to a fetchable trace.
func TestLatencySmoke(t *testing.T) {
	objectives, err := slo.Parse("p99<2s@30d")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := startFleet(2, objectives)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	rep, err := runLoad(loadConfig{
		URL:        fl.URL,
		Rate:       60,
		Duration:   3 * time.Second,
		Workers:    32,
		Tenants:    2,
		BatchFrac:  0.15,
		BatchSize:  4,
		TraceFrac:  0.15,
		SSEFrac:    0.1,
		Agents:     4,
		Tasks:      2,
		Objectives: objectives,
		OpTimeout:  30 * time.Second,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The report must round-trip as JSON (it is what -out archives) and
	// parse back with the same envelope.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if back.Load == nil || len(back.Results) == 0 {
		t.Fatal("report missing load section or results")
	}

	ls := back.Load
	if ls.Completed == 0 {
		t.Fatalf("no ops completed: %+v", ls)
	}
	if ls.Errors > ls.Arrivals/10 {
		t.Fatalf("%d/%d ops errored", ls.Errors, ls.Arrivals)
	}
	if !ls.OpenLoop {
		t.Error("report must declare the open-loop methodology")
	}
	for name, q := range map[string]float64{"p50": ls.LatencyMS.P50, "p99": ls.LatencyMS.P99, "p999": ls.LatencyMS.P999} {
		if q <= 0 || math.IsInf(q, 0) || math.IsNaN(q) {
			t.Errorf("%s = %g, want finite positive", name, q)
		}
	}
	if ls.LatencyMS.P999 < ls.LatencyMS.P50 {
		t.Errorf("p999 %g < p50 %g", ls.LatencyMS.P999, ls.LatencyMS.P50)
	}
	if len(ls.SLO) != 1 {
		t.Fatalf("want 1 client-side SLO verdict, got %+v", ls.SLO)
	}
	if len(ls.FleetSLO) != 1 {
		t.Fatalf("want 1 fleet /healthz SLO verdict, got %+v", ls.FleetSLO)
	}
	if len(ls.Worst) == 0 || ls.Worst[0].RequestID == "" {
		t.Fatalf("worst-request list empty or anonymous: %+v", ls.Worst)
	}

	// At least one exemplar chased from the fleet /metrics must resolve
	// to a fetchable trace through the same gateway.
	resolved := false
	for _, ex := range ls.Exemplars {
		if ex.TraceFetched {
			resolved = true
			break
		}
	}
	if !resolved {
		t.Fatalf("no exemplar resolved to a fetchable trace: %+v", ls.Exemplars)
	}

	// Burn-rate gauges live on the fleet exposition: the gateway's own
	// dmwgw_slo_* series and the replicas' summed dmwd_slo_* series.
	resp, err := http.Get(fl.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`dmwgw_slo_burn_rate{objective="p99<2s@30d",window="5m"}`,
		`dmwgw_slo_compliant{objective="p99<2s@30d"}`,
		`dmwgw_fleet_request_seconds_count`,
		`dmwd_slo_burn_rate{objective="p99<2s@30d",window="5m"}`,
		`dmwgw_backend_scrape_seconds{backend="rep0"}`,
		`dmwgw_backend_scrape_seconds{backend="rep1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet exposition missing %s", want)
		}
	}
}
