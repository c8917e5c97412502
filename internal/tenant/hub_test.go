package tenant

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestHubRoutesByJobTenantAndFirehose(t *testing.T) {
	h := NewHub()
	job := h.SubscribeJob("j1", 8)
	ten := h.SubscribeTenant("acme", 8)
	all := h.SubscribeTenant("", 8)
	other := h.SubscribeJob("j2", 8)
	defer func() {
		for _, s := range []*Subscription{job, ten, all, other} {
			s.Close()
		}
	}()

	h.Publish(Event{Type: EventAdmitted, Tenant: "acme", JobID: "j1"})
	h.Publish(Event{Type: EventAdmitted, Tenant: "beta", JobID: "j9"})

	recv := func(s *Subscription) []Event {
		var out []Event
		for {
			select {
			case ev := <-s.Events():
				out = append(out, ev)
			default:
				return out
			}
		}
	}
	if evs := recv(job); len(evs) != 1 || evs[0].JobID != "j1" {
		t.Errorf("job sub got %v, want exactly j1's event", evs)
	}
	if evs := recv(ten); len(evs) != 1 || evs[0].Tenant != "acme" {
		t.Errorf("tenant sub got %v, want exactly acme's event", evs)
	}
	if evs := recv(all); len(evs) != 2 {
		t.Errorf("firehose got %d events, want 2", len(evs))
	}
	if evs := recv(other); len(evs) != 0 {
		t.Errorf("unrelated job sub got %v, want nothing", evs)
	}
}

func TestHubSeqStrictlyIncreasesAndOrdered(t *testing.T) {
	h := NewHub()
	s := h.SubscribeJob("j", 128)
	defer s.Close()
	for i := 0; i < 100; i++ {
		h.Publish(Event{Type: EventPhase, JobID: "j", Tenant: "t"})
	}
	var last uint64
	for i := 0; i < 100; i++ {
		ev := <-s.Events()
		if ev.Seq <= last {
			t.Fatalf("event %d: seq %d not after %d", i, ev.Seq, last)
		}
		last = ev.Seq
	}
	if s.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0 with a large buffer", s.Dropped())
	}
}

func TestHubSlowSubscriberDropsNotBlocks(t *testing.T) {
	h := NewHub()
	s := h.SubscribeJob("j", 2)
	defer s.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			h.Publish(Event{Type: EventPhase, JobID: "j"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if s.Dropped() != 98 {
		t.Errorf("dropped = %d, want 98 (buffer 2 of 100)", s.Dropped())
	}
	if h.Dropped() != 98 {
		t.Errorf("hub dropped total = %d, want 98", h.Dropped())
	}
}

func TestHubCloseIsIdempotentAndDetaches(t *testing.T) {
	h := NewHub()
	s := h.SubscribeJob("j", 2)
	s.Close()
	s.Close()
	h.Publish(Event{Type: EventDone, JobID: "j"}) // must not panic (send on closed chan)
	if h.Subscribers() != 0 {
		t.Errorf("subscribers = %d after close, want 0", h.Subscribers())
	}
	if _, open := <-s.Events(); open {
		t.Error("channel still open after Close")
	}
}

// TestHubTenThousandIdleStreams is the scale acceptance test: the hub
// must hold >= 10k concurrent idle subscriptions with bounded memory,
// and a publish must cost O(matching subscribers) — delivering one
// job's events while 10k unrelated streams idle must not touch them.
func TestHubTenThousandIdleStreams(t *testing.T) {
	const n = 10_000
	h := NewHub()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	subs := make([]*Subscription, 0, n)
	for i := 0; i < n; i++ {
		subs = append(subs, h.SubscribeJob(fmt.Sprintf("idle-%05d", i), 16))
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perSub := float64(after.HeapAlloc-before.HeapAlloc) / n
	// A subscription is a struct + a 16-slot channel; ~3KB each is
	// already generous. The bound catches a per-subscriber goroutine
	// or per-event buffer blowup, not normal variance.
	if perSub > 3072 {
		t.Errorf("%.0f bytes/idle subscription, want <= 3072 (10k streams must stay cheap)", perSub)
	}

	// One busy job among 10k idle streams: delivery is full and
	// ordered, the idle streams see nothing, and the fan-out does not
	// scale with the subscriber population.
	busy := h.SubscribeJob("busy", 1024)
	start := time.Now()
	const events = 1000
	for i := 0; i < events; i++ {
		h.Publish(Event{Type: EventPhase, JobID: "busy", Tenant: "t"})
	}
	elapsed := time.Since(start)
	if got := len(busy.Events()); got != events {
		t.Errorf("busy stream buffered %d events, want %d", got, events)
	}
	if busy.Dropped() != 0 {
		t.Errorf("busy stream dropped %d, want 0", busy.Dropped())
	}
	for _, s := range subs[:100] {
		if len(s.Events()) != 0 || s.Dropped() != 0 {
			t.Fatal("idle stream received (or dropped) events for an unrelated job")
		}
	}
	// Publishing 1000 events into a 10k-subscriber hub should be
	// microseconds each; a second means fan-out iterates everyone.
	if elapsed > time.Second {
		t.Errorf("publishing %d events took %v with 10k idle subscribers; fan-out is not indexed", events, elapsed)
	}

	busy.Close()
	for _, s := range subs {
		s.Close()
	}
	if h.Subscribers() != 0 {
		t.Errorf("subscribers = %d after closing all, want 0", h.Subscribers())
	}
}

// BenchmarkEventHubFanout measures publish cost against a hub holding
// idle subscriber populations of growing size, with one hot job being
// delivered to a handful of matching streams. This is the number that
// backs the "tens of thousands of idle streams are cheap" claim in
// docs/TENANCY.md.
func BenchmarkEventHubFanout(b *testing.B) {
	for _, idle := range []int{0, 1000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			h := NewHub()
			for i := 0; i < idle; i++ {
				defer h.SubscribeJob(fmt.Sprintf("idle-%06d", i), 16).Close()
			}
			// 4 matching streams on the hot job, drained by a reader so
			// the benchmark measures delivery, not drop-counting.
			var hot []*Subscription
			stop := make(chan struct{})
			for i := 0; i < 4; i++ {
				s := h.SubscribeJob("hot", 1024)
				hot = append(hot, s)
				go func(s *Subscription) {
					for {
						select {
						case <-s.Events():
						case <-stop:
							return
						}
					}
				}(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish(Event{Type: EventPhase, JobID: "hot", Tenant: "t"})
			}
			b.StopTimer()
			close(stop)
			for _, s := range hot {
				s.Close()
			}
		})
	}
}

// TestHubPublishRecordedIsOneStepToSubscribers pins the guarantee SSE
// replay rests on: the history append runs inside the publish, under the
// lock every subscribe takes, so no stream can register between an
// event's fan-out and its recording (where it would see the event neither
// live nor replayed). The TryLock is the white-box half: it fails the
// moment record is moved outside the critical section.
func TestHubPublishRecordedIsOneStepToSubscribers(t *testing.T) {
	h := NewHub()
	early := h.SubscribeJob("j", 0)
	defer early.Close()

	var history []Event
	lateDone := make(chan *Subscription, 1)
	got := h.PublishRecorded(Event{Type: EventDone, JobID: "j"}, func(ev Event) {
		if h.mu.TryLock() {
			h.mu.Unlock()
			t.Error("record ran outside the hub lock: a subscriber could register between fan-out and recording")
		}
		if ev.Seq == 0 {
			t.Error("record received an unstamped event")
		}
		// A stream opening mid-publish parks on the lock until the
		// publish — recording included — is over.
		go func() { lateDone <- h.SubscribeJob("j", 0) }()
		history = append(history, ev)
	})
	late := <-lateDone
	defer late.Close()

	if len(history) != 1 || history[0].Seq != got.Seq {
		t.Fatalf("history = %v, want the published event (seq %d)", history, got.Seq)
	}
	select {
	case ev := <-early.Events():
		if ev.Seq != got.Seq {
			t.Errorf("early subscriber got seq %d, want %d", ev.Seq, got.Seq)
		}
	default:
		t.Error("a subscriber registered before the publish did not get the event live")
	}
	// The late subscriber registered after the publish: nothing live, but
	// the history it reads next already holds the event.
	select {
	case ev := <-late.Events():
		t.Errorf("late subscriber got %v live, want it only in the history", ev)
	default:
	}
}
