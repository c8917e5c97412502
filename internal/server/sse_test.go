package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	protocol "dmw/internal/dmw"
	"dmw/internal/obs"
	"dmw/internal/tenant"
)

// readSSEEvents consumes an SSE body to EOF (per-job streams end at
// the terminal event) and returns the decoded events in order.
func readSSEEvents(t *testing.T, r io.Reader) []tenant.Event {
	t.Helper()
	var out []tenant.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // id:/event: framing lines, heartbeats, blank separators
		}
		var ev tenant.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return out
}

// phaseSequence extracts the Phase field of phase events in order.
func phaseSequence(events []tenant.Event) []string {
	var phases []string
	for _, ev := range events {
		if ev.Type == tenant.EventPhase {
			phases = append(phases, ev.Phase)
		}
	}
	return phases
}

// TestSSEMatchesLongPollAndTrace is the satellite-3 equivalence check:
// the SSE stream, the long-poll view, and the span trace must tell the
// same story — same terminal state, and the SSE phase sequence must
// equal queue_wait + the protocol phase list that the trace spans also
// record (ties into TestPhaseSecondsSumToLatency's decomposition).
func TestSSEMatchesLongPollAndTrace(t *testing.T) {
	_, ts := startHTTP(t, testConfig())

	spec := tinyTenantSpec("acme", 7)
	spec.Trace = true
	status, view, apiErr := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", status, apiErr.Error)
	}

	// Live SSE: open immediately, read to stream end (terminal event).
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}
	live := readSSEEvents(t, resp.Body)
	resp.Body.Close()

	// Long-poll the same job.
	var done JobView
	if st := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=30s", &done); st != http.StatusOK {
		t.Fatalf("long-poll status %d", st)
	}
	if done.State != StateDone {
		t.Fatalf("long-poll state %s (%s)", done.State, done.Error)
	}

	// Terminal agreement: the stream's last event is "done" too.
	if len(live) == 0 {
		t.Fatal("SSE stream delivered no events")
	}
	terminal := live[len(live)-1]
	if terminal.Type != tenant.EventDone {
		t.Fatalf("SSE terminal event = %s, want done (long-poll says done)", terminal.Type)
	}
	if terminal.JobID != view.ID || terminal.Tenant != "acme" {
		t.Errorf("terminal event identity = %s/%s, want %s/acme", terminal.JobID, terminal.Tenant, view.ID)
	}

	// Lifecycle shape: admitted, running, then phases, then done —
	// strictly increasing sequence numbers throughout.
	types := make([]string, len(live))
	for i, ev := range live {
		types[i] = ev.Type
		if i > 0 && ev.Seq <= live[i-1].Seq {
			t.Fatalf("event %d: seq %d not increasing after %d", i, ev.Seq, live[i-1].Seq)
		}
	}
	if types[0] != tenant.EventAdmitted {
		t.Errorf("first event = %s, want admitted", types[0])
	}

	// Phase equivalence: queue_wait followed by the protocol phases in
	// protocol order — the same decomposition the metrics histograms and
	// the span trace use.
	wantPhases := append([]string{PhaseQueueWait}, protocol.PhaseNames...)
	gotPhases := phaseSequence(live)
	if len(gotPhases) != len(wantPhases) {
		t.Fatalf("phase sequence %v, want %v", gotPhases, wantPhases)
	}
	for i := range wantPhases {
		if gotPhases[i] != wantPhases[i] {
			t.Fatalf("phase[%d] = %s, want %s (full: %v)", i, gotPhases[i], wantPhases[i], gotPhases)
		}
	}

	// Phase durations must loosely bound against the long-poll split:
	// queue_wait vs QueueWaitMS, protocol phases within RunMS (loose
	// because the store write between pickup and run is unmetered).
	var protoMS float64
	for _, ev := range live {
		if ev.Type != tenant.EventPhase {
			continue
		}
		if ev.DurationMS < 0 {
			t.Errorf("phase %s duration %f < 0", ev.Phase, ev.DurationMS)
		}
		if ev.Phase != PhaseQueueWait {
			protoMS += ev.DurationMS
		}
	}
	if done.RunMS > 0 && protoMS > done.RunMS*1.5+10 {
		t.Errorf("protocol phase sum %.2fms exceeds run time %.2fms", protoMS, done.RunMS)
	}

	// Trace agreement: the streamed phase decomposition and the span
	// trace describe the same run. Spans are finer-grained than phases
	// (allocation/finalize decompose into lambda_psi, second_price,
	// disclosure...), so the check is that every phase with a direct
	// span counterpart appears, under the common "job" root.
	traceResp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", traceResp.StatusCode)
	}
	spanNames := map[string]bool{}
	sc := bufio.NewScanner(traceResp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var span obs.Span
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		spanNames[span.Name] = true
	}
	if !spanNames["job"] {
		t.Errorf("trace missing job root span (spans: %v)", spanNames)
	}
	for _, name := range []string{protocol.PhaseInit, protocol.PhaseBidding, protocol.PhaseSettlement} {
		if !spanNames[name] {
			t.Errorf("trace missing span for streamed phase %q (spans: %v)", name, spanNames)
		}
	}

	// Replay: a second subscription after the terminal state must serve
	// the identical event history (same types, same seqs) and end.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	replay := readSSEEvents(t, resp2.Body)
	resp2.Body.Close()
	if len(replay) != len(live) {
		t.Fatalf("replay has %d events, live had %d", len(replay), len(live))
	}
	for i := range replay {
		if replay[i].Seq != live[i].Seq || replay[i].Type != live[i].Type {
			t.Errorf("replay[%d] = %s/%d, live was %s/%d",
				i, replay[i].Type, replay[i].Seq, live[i].Type, live[i].Seq)
		}
	}
}

// TestSSEUnknownJob404s before any stream headers go out.
func TestSSEUnknownJob404s(t *testing.T) {
	_, ts := startHTTP(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/jobs/job-doesnotexist/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestFirehoseTenantFilter: /v1/events?tenant=X only carries that
// tenant's events; the unfiltered firehose carries everyone's.
func TestFirehoseTenantFilter(t *testing.T) {
	s, ts := startHTTP(t, testConfig())

	// Open the filtered firehose BEFORE submitting, so no events race
	// past the subscription.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/events?tenant=acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose status %d", resp.StatusCode)
	}

	jobA, err := s.Submit(tinyTenantSpec("acme", 1))
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := s.Submit(tinyTenantSpec("rival", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !jobA.WaitDone(30*time.Second) || !jobB.WaitDone(30*time.Second) {
		t.Fatal("jobs did not finish")
	}

	// Read the filtered stream until acme's terminal event arrives; a
	// rival event showing up first (or ever) is a filter failure.
	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(20*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	sawAcmeDone := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev tenant.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.Tenant != "acme" {
			t.Fatalf("filtered firehose leaked tenant %q event %s", ev.Tenant, ev.Type)
		}
		if ev.Type == tenant.EventDone && ev.JobID == jobA.ID {
			sawAcmeDone = true
			break
		}
	}
	if !sawAcmeDone {
		t.Fatal("filtered firehose never delivered acme's done event")
	}
}

// parkedOnMutexIn reports whether some goroutine is inside fn and has
// entered a contended sync.Mutex.Lock beneath it. It reads the runtime's
// own goroutine dump, so a test can wait for "that goroutine is now
// blocked there" as an event instead of sleeping and hoping.
func parkedOnMutexIn(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) && strings.Contains(g, "lockSlow") {
			return true
		}
	}
	return false
}

// TestSSEStreamOpenedInsideTerminalPublish is the regression test for the
// lost terminal event. publish used to fan an event out through the hub
// and only then append it to the job's history, while a stream subscribes
// and then replays the history: a stream opened between the two saw the
// terminal event neither live (it subscribed after the fan-out) nor
// replayed (it read the history before the append) and heartbeated
// forever.
//
// The test parks the publisher exactly there — the append needs the job's
// mutex, which the test holds, and a firehose subscription reports the
// fan-out — and opens a stream into the gap. With the append inside the
// hub's critical section the newcomer parks on the hub lock until the
// publish is complete; the test waits for that (as an event, from the
// goroutine dump), lets the publish finish, and the stream's replay then
// holds the terminal event. Were the append outside the critical section
// again, the newcomer would register inside the gap, and the test fails on
// the spot instead.
func TestSSEStreamOpenedInsideTerminalPublish(t *testing.T) {
	s := startServer(t, testConfig())
	now := time.Now()
	rec, err := admissionRecord(JobSpec{ID: "gap", Tenant: "acme"}, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	job := jobFromRecord(rec)
	firehose := s.hub.SubscribeTenant("", 0)
	defer firehose.Close()
	stuck := time.After(time.Minute) // a failure guard, never a pacing device

	job.mu.Lock()
	published := make(chan struct{})
	go func() {
		defer close(published)
		s.publish(job, tenant.Event{Type: tenant.EventDone, Time: now, Tenant: "acme", JobID: job.ID})
	}()
	var terminal tenant.Event
	select {
	case terminal = <-firehose.Events(): // fanned out; the append is parked
	case <-stuck:
		job.mu.Unlock()
		t.Fatal("terminal event never fanned out")
	}

	// A stream opens: subscribe first, as handleJobEvents does.
	subscribed := make(chan *tenant.Subscription, 1)
	go func() { subscribed <- s.hub.SubscribeJob(job.ID, 0) }()
	for !parkedOnMutexIn("(*Hub).SubscribeJob") {
		select {
		case sub := <-subscribed:
			recorded := len(job.events) // the test holds job.mu
			job.mu.Unlock()
			sub.Close()
			t.Fatalf("a stream subscribed between the terminal event's fan-out and its history append (%d events recorded): it sees the event neither live nor replayed", recorded)
		case <-stuck:
			job.mu.Unlock()
			t.Fatal("the opening stream neither subscribed nor parked")
		default:
			runtime.Gosched()
		}
	}

	job.mu.Unlock() // the publish completes, then the newcomer registers
	<-published
	sub := <-subscribed
	defer sub.Close()
	// ...and then replays, also as handleJobEvents does.
	replay := job.Events()
	if len(replay) != 1 || replay[0].Seq != terminal.Seq || !tenant.TerminalEvent(replay[0].Type) {
		t.Fatalf("replay = %+v, want exactly the terminal event (seq %d)", replay, terminal.Seq)
	}
	select {
	case ev := <-sub.Events():
		t.Errorf("event %+v delivered live to a stream that registered after its publish", ev)
	default:
	}
}
