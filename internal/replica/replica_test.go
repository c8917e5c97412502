package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmw/internal/wire"
)

// recordSink is a test peer that accepts replication POSTs the way a
// dmwd does: binary record frames only, answered 204. It remembers
// per-POST batch sizes.
type recordSink struct {
	mu      sync.Mutex
	recs    []Record
	batches []int
	srv     *httptest.Server
}

func newRecordSink(t *testing.T) *recordSink {
	s := &recordSink{}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != RecordsPath {
			http.NotFound(w, r)
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != wire.ContentTypeRecordFrame {
			t.Errorf("sink: push arrived as %q, want a record frame", ct)
			w.WriteHeader(http.StatusUnsupportedMediaType)
			return
		}
		body, _ := io.ReadAll(r.Body)
		wrecs, err := wire.DecodeRecordFrame(body)
		if err != nil {
			t.Errorf("sink: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		for _, wr := range wrecs {
			s.recs = append(s.recs, Record{ID: wr.ID, Origin: wr.Origin, Epoch: wr.Epoch,
				Payload: json.RawMessage(append([]byte(nil), wr.Payload...))})
		}
		s.batches = append(s.batches, len(wrecs))
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *recordSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func (s *recordSink) maxBatch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := 0
	for _, n := range s.batches {
		if n > max {
			max = n
		}
	}
	return max
}

func view(self string, replication int, peers ...Peer) View {
	return View{Epoch: 1, Self: self, Replication: replication, Peers: peers}
}

func TestTargetsExcludeSelfAndHonorFactor(t *testing.T) {
	r := NewReplicator(Config{})
	defer r.Close()
	if got := r.Targets("job-1"); got != nil {
		t.Fatalf("targets before any view: %v, want nil", got)
	}
	peers := []Peer{
		{Name: "a", URL: "http://a", Weight: 1},
		{Name: "b", URL: "http://b", Weight: 1},
		{Name: "c", URL: "http://c", Weight: 1},
		{Name: "d", URL: "http://d", Weight: 1},
	}
	r.Update(view("a", 3, peers...))
	for _, id := range []string{"j1", "j2", "j3", "j4", "j5"} {
		ts := r.Targets(id)
		if len(ts) != 2 {
			t.Fatalf("R=3: %d targets for %s, want 2", len(ts), id)
		}
		for _, p := range ts {
			if p.Name == "a" {
				t.Fatalf("self placed as a target for %s", id)
			}
			if p.URL == "" {
				t.Fatalf("target %s has no URL", p.Name)
			}
		}
	}
	// R=1 means owner-only: no copies.
	r.Update(view("a", 1, peers...))
	if got := r.Targets("j1"); got != nil {
		t.Fatalf("R=1 targets = %v, want nil", got)
	}
}

func TestOfferPushesToSuccessors(t *testing.T) {
	sink := newRecordSink(t)
	r := NewReplicator(Config{})
	defer r.Close()
	r.Update(view("self", 2,
		Peer{Name: "self", URL: "http://ignored", Weight: 1},
		Peer{Name: "peer", URL: sink.srv.URL, Weight: 1},
	))
	r.Offer(Record{ID: "j-1", Origin: "self", Epoch: 1, Payload: json.RawMessage(`{"k":1}`)})
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never reached the peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	pushes, errs, dropped := r.Stats()
	if pushes != 1 || errs != 0 || dropped != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/0", pushes, errs, dropped)
	}
}

func TestHandoffGroupsPerTarget(t *testing.T) {
	s1, s2 := newRecordSink(t), newRecordSink(t)
	r := NewReplicator(Config{})
	defer r.Close()
	r.Update(view("self", 2,
		Peer{Name: "self", URL: "http://ignored", Weight: 1},
		Peer{Name: "p1", URL: s1.srv.URL, Weight: 1},
		Peer{Name: "p2", URL: s2.srv.URL, Weight: 1},
	))
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, Record{ID: "job-" + string(rune('a'+i%26)) + string(rune('0'+i/26)), Payload: json.RawMessage(`{}`)})
	}
	r.Handoff(recs)
	// Every record went to exactly one of the two peers (R=2 -> one
	// copy each), synchronously.
	if got := s1.count() + s2.count(); got != len(recs) {
		t.Fatalf("handoff delivered %d records, want %d", got, len(recs))
	}
	if s1.count() == 0 || s2.count() == 0 {
		t.Fatalf("handoff not spread across targets: %d/%d", s1.count(), s2.count())
	}
}

// TestHandoffFallsBackPastDeadPeer pins the stale-view leave scenario:
// a leaver's view can still list a member that itself just departed, so
// when a handoff target is unreachable the records must fall back to
// the next live member in their successor order instead of being lost —
// they are the only remaining copies once the leaver exits.
func TestHandoffFallsBackPastDeadPeer(t *testing.T) {
	live := newRecordSink(t)
	r := NewReplicator(Config{PushTimeout: 250 * time.Millisecond})
	defer r.Close()
	r.Update(view("self", 2,
		Peer{Name: "self", URL: "http://ignored", Weight: 1},
		Peer{Name: "dead", URL: "http://127.0.0.1:1", Weight: 1},
		Peer{Name: "live", URL: live.srv.URL, Weight: 1},
	))
	var recs []Record
	for i := 0; i < 30; i++ {
		recs = append(recs, Record{ID: fmt.Sprintf("fb-%02d", i), Payload: json.RawMessage(`{}`)})
	}
	r.Handoff(recs)
	// With R=2 each record has one preferred target; roughly half prefer
	// the dead peer, and every one of those must land on the live one.
	if got := live.count(); got != len(recs) {
		t.Fatalf("live peer holds %d records after handoff, want all %d", got, len(recs))
	}
	if _, errs, _ := r.Stats(); errs == 0 {
		t.Fatal("no push errors counted despite a dead peer")
	}
}

// TestOfferPushesUseRecordFrames: the async push path ships record
// frames (the sink refuses anything else) and the payload survives the
// frame byte for byte.
func TestOfferPushesUseRecordFrames(t *testing.T) {
	sink := newRecordSink(t)
	r := NewReplicator(Config{})
	defer r.Close()
	r.Update(view("self", 2,
		Peer{Name: "self", URL: "http://ignored", Weight: 1},
		Peer{Name: "peer", URL: sink.srv.URL, Weight: 1},
	))
	r.Offer(Record{ID: "wf-1", Origin: "self", Epoch: 1, Payload: json.RawMessage(`{"k":1}`)})
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("offer never reached the peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sink.mu.Lock()
	got := string(sink.recs[0].Payload)
	sink.mu.Unlock()
	if got != `{"k":1}` {
		t.Fatalf("payload %q survived the frame wrong", got)
	}
}

// TestPushReusesConnectionWhenPeerAnswersWithBody: a peer answering
// 200 with a body is as much a success as dmwd's bodiless 204, and the
// body is drained before the push's context is released — so N pushes
// ride ONE keep-alive connection instead of forfeiting it every time.
func TestPushReusesConnectionWhenPeerAnswersWithBody(t *testing.T) {
	var conns, posts atomic.Int64
	sink := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		posts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ok":true}`)
	}))
	sink.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	sink.Start()
	defer sink.Close()

	r := NewReplicator(Config{})
	defer r.Close()
	const pushes = 8
	for i := 0; i < pushes; i++ {
		rec := Record{ID: fmt.Sprintf("ka-%d", i), Payload: json.RawMessage(`{}`)}
		if err := r.post(Peer{Name: "peer", URL: sink.URL}, []Record{rec}); err != nil {
			t.Fatalf("push %d: %v (any 2xx is success)", i, err)
		}
	}
	if got := posts.Load(); got != pushes {
		t.Fatalf("sink saw %d POSTs, want %d", got, pushes)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d pushes opened %d connections, want 1 (body must be drained before the context is cancelled)", pushes, got)
	}
}

// TestPushNon2xxIsStatusError: anything outside 2xx fails the push with
// the status, whatever headers ride along.
func TestPushNon2xxIsStatusError(t *testing.T) {
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.HeaderWire, wire.WireV1)
		w.WriteHeader(http.StatusUnsupportedMediaType)
	}))
	defer sink.Close()
	r := NewReplicator(Config{})
	defer r.Close()
	err := r.post(Peer{Name: "peer", URL: sink.URL}, []Record{{ID: "x", Payload: json.RawMessage(`{}`)}})
	var se *statusError
	if !errors.As(err, &se) || se.status != http.StatusUnsupportedMediaType {
		t.Fatalf("push to a 415 peer: err = %v, want statusError 415", err)
	}
}

// TestOfferBatchedDrain: a burst of offers into a queue drains as a few
// grouped POSTs, not one POST per record, and the batch sizes are
// surfaced through ObserveBatch.
func TestOfferBatchedDrain(t *testing.T) {
	slow := make(chan struct{})
	sink := newRecordSink(t)
	// Gate the sink so the burst accumulates in the queue while the
	// first push is in flight.
	gated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-slow
		sink.srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer gated.Close()

	var observed []int
	var obsMu sync.Mutex
	r := NewReplicator(Config{ObserveBatch: func(n int) {
		obsMu.Lock()
		observed = append(observed, n)
		obsMu.Unlock()
	}})
	defer r.Close()
	r.Update(view("self", 2,
		Peer{Name: "self", URL: "http://ignored", Weight: 1},
		Peer{Name: "peer", URL: gated.URL, Weight: 1},
	))
	const burst = 32
	for i := 0; i < burst; i++ {
		r.Offer(Record{ID: fmt.Sprintf("bd-%02d", i), Payload: json.RawMessage(`{}`)})
	}
	close(slow)
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() < burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d records delivered", sink.count(), burst)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The first record ships alone (it was drained before the burst
	// finished queueing), but the remainder must coalesce.
	if got := sink.maxBatch(); got < 2 {
		t.Fatalf("max delivered batch = %d; burst never coalesced", got)
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	max := 0
	for _, n := range observed {
		if n > max {
			max = n
		}
	}
	if max < 2 {
		t.Fatalf("ObserveBatch max = %d; batch sizes not surfaced", max)
	}
}

func TestOfferDropsWhenQueueFull(t *testing.T) {
	// No server behind the peer URL: pushes block on dial timeouts, so a
	// tiny queue overflows and drops are counted instead of blocking.
	r := NewReplicator(Config{QueueDepth: 1, PushTimeout: 50 * time.Millisecond})
	defer r.Close()
	r.Update(view("self", 2,
		Peer{Name: "self", URL: "http://ignored", Weight: 1},
		Peer{Name: "gone", URL: "http://127.0.0.1:1", Weight: 1},
	))
	for i := 0; i < 50; i++ {
		r.Offer(Record{ID: "x", Payload: json.RawMessage(`{}`)})
	}
	if _, _, dropped := r.Stats(); dropped == 0 {
		t.Fatal("full queue never dropped an offer")
	}
}

func TestStoreLifecycle(t *testing.T) {
	s := NewStore()
	now := time.Now()
	s.Put(Record{ID: "a", Payload: json.RawMessage(`{}`)}, now.Add(time.Hour))
	s.Put(Record{ID: "b", Payload: json.RawMessage(`{}`)}, now.Add(time.Millisecond))
	s.Put(Record{ID: "c", Payload: json.RawMessage(`{}`)}, time.Time{}) // no deadline

	if _, ok := s.Get("a", now); !ok {
		t.Fatal("live record missing")
	}
	if _, ok := s.Get("b", now.Add(time.Second)); ok {
		t.Fatal("expired record served")
	}
	if _, ok := s.Get("c", now.Add(1000*time.Hour)); !ok {
		t.Fatal("deadline-free record evicted")
	}
	if n := s.Sweep(now.Add(time.Second)); n != 0 {
		// b was already lazily evicted by the Get above.
		t.Fatalf("sweep evicted %d, want 0 after lazy eviction", n)
	}
	if got := len(s.All()); got != 2 {
		t.Fatalf("All() = %d records, want 2", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
}
