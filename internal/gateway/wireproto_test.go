package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/server"
)

// TestWireNegotiationAgainstRealReplica: a submit reaches dmwd as a
// frame and the capability header on its answer is counted once per
// backend; nothing about the client-facing answer changes.
func TestWireNegotiationAgainstRealReplica(t *testing.T) {
	rep := startReplica(t)
	g, front := startGateway(t, []*replica{rep}, nil)
	for i := 0; i < 2; i++ {
		sp := tinySpec(51)
		sp.ID = fmt.Sprintf("wire-probe-%d", i)
		if status, body := postJSON(t, front.URL+"/v1/jobs", sp); status != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", status, body)
		}
	}
	if g.metrics.wireNegotiated.Load() != 1 {
		t.Errorf("wireNegotiated = %d, want 1 (one backend, counted once)", g.metrics.wireNegotiated.Load())
	}
}

// TestUnframeableSpecIs400: a spec the frame encoder refuses (a field
// over 65,535 entries) is the client's error — a 400 naming the field on
// both submit endpoints — and no second encoding is ever sent: the
// backend sees nothing.
func TestUnframeableSpecIs400(t *testing.T) {
	var posts atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer backend.Close()
	g, err := New(Config{
		Backends:       []Backend{{Name: "b", URL: backend.URL}},
		HealthInterval: time.Hour,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	front := httptest.NewServer(g.Handler())
	defer front.Close()

	wide := tinySpec(70)
	wide.W = make([]int, 1<<16) // one past the frame's 16-bit count
	for i := range wide.W {
		wide.W[i] = 1 + i%3
	}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/jobs", wide},
		{"/v1/jobs/batch", []server.JobSpec{tinySpec(71), wide}},
	} {
		status, body := postJSON(t, front.URL+tc.path, tc.body)
		var apiErr apiError
		if err := json.Unmarshal(body, &apiErr); err != nil {
			t.Fatalf("%s: body %q is not an error envelope: %v", tc.path, body, err)
		}
		if status != http.StatusBadRequest || !strings.Contains(apiErr.Error, "w of 65536 entries") {
			t.Errorf("%s: HTTP %d %q, want 400 naming the oversized field", tc.path, status, apiErr.Error)
		}
	}
	if n := posts.Load(); n != 0 {
		t.Errorf("backend received %d POSTs; an unframeable spec must never be sent in another encoding", n)
	}
}
