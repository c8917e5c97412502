package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"dmw/internal/tenant"
	"dmw/internal/wire"
)

// TestWireSpecRoundTrip pins the frame<->spec conversion against the
// JSON encoding: a spec that rode the binary path must admit exactly
// the job its JSON twin would have.
func TestWireSpecRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{ID: "a", Bids: [][]int{{1, 2}, {2, 1}}, W: []int{1, 2}, C: 1, Seed: 9,
			Parallelism: 3, Record: true, CountOps: true, Trace: true,
			LinkDelayMS: 2.5, RequestID: "rid", Tenant: "acme"},
		{ID: "b", Random: &RandomSpec{Agents: 6, Tasks: 2}, Seed: -1},
		{},
	}
	for i, spec := range specs {
		got := SpecFromWire(SpecToWire(spec))
		want, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, gotJSON) {
			t.Errorf("spec %d: wire round trip diverges from JSON:\n want %s\n got  %s", i, want, gotJSON)
		}
	}
}

// TestWireSubmitNegotiation drives the binary branch of the submit
// endpoints end to end: a framed single submit is admitted identically
// to JSON, a framed batch answers the JSON item array with per-item
// statuses whatever the Accept header asks for (the result-frame
// encoding is gone; the header is ignored, pinned here), and the
// capability header rides every response to a frame-typed request.
func TestWireSubmitNegotiation(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	spec := JobSpec{ID: "wire-1", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 1}
	frame, err := wire.EncodeJobFrame([]wire.Job{SpecToWire(spec)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", wire.ContentTypeJobFrame, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("framed submit: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(wire.HeaderWire); got != wire.WireV1 {
		t.Fatalf("framed submit: %s header %q, want %q", wire.HeaderWire, got, wire.WireV1)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil || view.ID != "wire-1" {
		t.Fatalf("framed submit answered %s (err %v), want JSON view for wire-1", body, err)
	}

	// Batch: one valid spec, one invalid, asking for the retired binary
	// result encoding. Per-item statuses must mirror what single submits
	// earn.
	batch, err := wire.EncodeJobFrame([]wire.Job{
		SpecToWire(JobSpec{ID: "wire-2", Random: &RandomSpec{Agents: 5, Tasks: 2}, W: []int{1, 2, 3}, Seed: 2}),
		SpecToWire(JobSpec{ID: "wire-bad"}), // no bids, no random: invalid
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/batch", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeJobFrame)
	req.Header.Set("Accept", wire.ContentTypeResultFrame)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("framed batch: status %d, body %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("framed batch: content type %q, want application/json", ct)
	}
	if got := resp.Header.Get(wire.HeaderWire); got != wire.WireV1 {
		t.Errorf("framed batch: %s header %q, want %q", wire.HeaderWire, got, wire.WireV1)
	}
	var items []BatchItem
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatalf("decoding item array: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("batch answer carries %d items, want 2", len(items))
	}
	if items[0].Status != http.StatusAccepted || items[0].Job == nil || items[0].Job.ID != "wire-2" {
		t.Errorf("item 0: %+v, want 202 with the job view for wire-2", items[0])
	}
	if items[1].Status != http.StatusBadRequest || items[1].Error == "" {
		t.Errorf("item 1: status %d err %q, want 400 with message", items[1].Status, items[1].Error)
	}
}

// TestWireCorruptFrameLoud400 pins the corrupt-frame contract: a
// corrupt or truncated frame, or one in an older layout, earns a 400
// on both submit endpoints whose body names the frame decoder (never a
// silent misparse through the JSON path), still carrying the
// capability header: the peer speaks frames, the request itself was
// bad. Every refusal counts in dmwd_wire_errors_total.
func TestWireCorruptFrameLoud400(t *testing.T) {
	s, ts := startHTTP(t, testConfig())

	frame, err := wire.EncodeJobFrame([]wire.Job{SpecToWire(JobSpec{ID: "x", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}})})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"truncated": frame[:len(frame)-3],
		"corrupt":   append([]byte{'X'}, frame[1:]...),
		"empty":     {},
		"version 1": versionOneJobFrame(),
	}
	refused := int64(0)
	for _, path := range []string{"/v1/jobs", "/v1/jobs/batch"} {
		for name, body := range bodies {
			resp, err := http.Post(ts.URL+path, wire.ContentTypeJobFrame, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			refused++
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s frame: status %d, want 400 (body %s)", path, name, resp.StatusCode, raw)
			}
			if got := resp.Header.Get(wire.HeaderWire); got != wire.WireV1 {
				t.Errorf("%s %s frame: %s header %q, want %q", path, name, wire.HeaderWire, got, wire.WireV1)
			}
			var apiErr apiError
			if err := json.Unmarshal(raw, &apiErr); err != nil || !strings.Contains(apiErr.Error, "frame") {
				t.Errorf("%s %s frame: error %q does not name the frame decoder", path, name, apiErr.Error)
			}
		}
	}
	if got := s.metrics.wireErrors.Load(); got != refused {
		t.Errorf("wire errors counted %d, want %d", got, refused)
	}
	if _, ok := s.Get("v1-job"); ok {
		t.Error("a version-1 frame admitted its job")
	}
}

// versionOneJobFrame is one random-shape job in the version-1 frame
// layout, which carried maxPrice:f64 between linkDelayMS and w.
func versionOneJobFrame() []byte {
	be := binary.BigEndian
	b := []byte{'D', 'W', 1, 1, 0, 0, 0, 1} // magic, version 1, job frame, one item
	b = be.AppendUint16(b, 6)
	b = append(b, "v1-job"...)
	b = be.AppendUint16(b, 0) // request ID
	b = be.AppendUint16(b, 0) // tenant
	b = append(b, 1)          // flags: random shape
	// c, seed, parallelism, linkDelayMS, maxPrice
	for _, v := range []uint64{1, 7, 0, math.Float64bits(0), math.Float64bits(0.5)} {
		b = be.AppendUint64(b, v)
	}
	b = be.AppendUint16(b, 4) // w
	for v := uint64(1); v <= 4; v++ {
		b = be.AppendUint64(b, v)
	}
	b = be.AppendUint32(b, 6) // agents
	return be.AppendUint32(b, 3)
}

// TestBatchItemStatuses pins the per-item status/guidance fields on the
// JSON batch path: 429 items carry the refusing gate's own RetryAfter,
// 503 items the queue-drain guidance — the values a single
// submit renders into its status and headers.
func TestBatchItemStatuses(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = tenant.Config{
		Default: tenant.Unlimited,
		Tenants: map[string]tenant.Limits{"throttled": {Rate: 0.001, Burst: 1, Quota: -1, Weight: 1}},
	}
	_, ts := startHTTP(t, cfg)

	specs := []JobSpec{
		{ID: "ok-1", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 1},
		{ID: "th-1", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 2, Tenant: "throttled"},
		{ID: "th-2", Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}, Seed: 3, Tenant: "throttled"},
	}
	status, items, _ := postBatch(t, ts, specs)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if items[0].Status != http.StatusAccepted {
		t.Errorf("accepted item: status %d, want 202", items[0].Status)
	}
	// The throttled tenant has burst 1: its first spec is admitted, the
	// second refused by the token bucket with derived guidance.
	if items[1].Status != http.StatusAccepted {
		t.Errorf("first throttled item: status %d (%s), want 202", items[1].Status, items[1].Error)
	}
	it := items[2]
	if it.Status != http.StatusTooManyRequests {
		t.Fatalf("second throttled item: status %d (%s), want 429", it.Status, it.Error)
	}
	if it.RetryAfterSec < 1 {
		t.Errorf("429 item: retry_after_seconds %d, want >= 1", it.RetryAfterSec)
	}
	if it.Job != nil {
		t.Errorf("429 item carries a job view; per-tenant refusals must not create records")
	}
}
