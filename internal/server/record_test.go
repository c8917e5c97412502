package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/journal"
)

// rebuiltView is the View of the job j's record describes, with the one
// non-durable field (spans are diagnostics) cleared on both sides.
func rebuiltView(j *Job) (live, rebuilt JobView) {
	live, rebuilt = j.View(), jobFromRecord(j.record()).View()
	live.HasTrace, rebuilt.HasTrace = false, false
	return live, rebuilt
}

// sameRestoredView compares a live view with the one a restart rebuilt:
// the live one subtracts monotonic clock readings, the restored one
// wall-clock stamps, so the two durations may differ far below a
// microsecond; everything else must be equal.
func sameRestoredView(live, restored JobView) bool {
	const slackMS = 0.01
	if math.Abs(live.QueueWaitMS-restored.QueueWaitMS) > slackMS || math.Abs(live.RunMS-restored.RunMS) > slackMS {
		return false
	}
	live.HasTrace, live.QueueWaitMS, live.RunMS = false, 0, 0
	restored.QueueWaitMS, restored.RunMS = 0, 0
	return reflect.DeepEqual(live, restored)
}

// TestRecordIsTheJob drives seeded histories through a journal-backed
// server that the test itself works as the only worker: submissions
// with and without an ID, duplicate IDs, queue-full and drain refusals,
// resubmits after a refusal, done and failed runs, and expiry. It
// checks that the record is the job:
//   - after every transition, every job's View equals the View of the
//     job rebuilt from its record (the running transition is checked
//     while the run cannot finish);
//   - at every step, the WAL's last record for each job decodes to the
//     job's record;
//   - reopening the data dir gives back the live View of every job.
func TestRecordIsTheJob(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { recordHistory(t, seed) })
	}
}

func recordHistory(t *testing.T, seed int64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(format+"\nreplay: go test ./internal/server -run 'TestRecordIsTheJob/seed=%d$'", append(args, seed)...)
	}
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.QueueDepth = 3
	s, err := New(cfg) // never started: the test pops and runs every job
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })

	check := func(what string, job *Job) {
		t.Helper()
		if live, rebuilt := rebuiltView(job); !reflect.DeepEqual(live, rebuilt) {
			fail("%s: job %s reads\n%+v\nbut its record rebuilds\n%+v", what, job.ID, live, rebuilt)
		}
	}
	checkAll := func(what string) {
		t.Helper()
		last := make(map[string][]byte)
		for _, e := range readWAL(t, dir) {
			if r, err := decodeRecord(e.Data); err == nil {
				last[r.ID] = e.Data
			}
		}
		for _, job := range s.store.snapshotJobs() {
			check(what, job)
			r, err := decodeRecord(last[job.ID])
			if err != nil {
				fail("%s: job %s has no decodable WAL record: %v", what, job.ID, err)
			}
			wal, _ := encodeRecord(*r)
			want, _ := encodeRecord(job.record())
			if !bytes.Equal(wal, want) {
				fail("%s: the WAL's last record for %s is\n%s\nwant the job's record\n%s", what, job.ID, wal, want)
			}
		}
	}
	setDraining := func(on bool) {
		// The drain window without closing the queue, so the history
		// can go on admitting afterwards.
		s.mu.Lock()
		s.draining = on
		s.mu.Unlock()
	}
	// clock is the history's notion of now for expiry: it only moves
	// forward, to just past some terminal job's deadline.
	clock := time.Now()
	ids := []string{"r-0", "r-1", "r-2", "r-3"}
	seen := make(map[string]int) // what the history exercised
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // submit: a pooled ID (duplicate or resubmit), or none
			spec := JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: int64(step), Record: rng.Intn(2) == 0}
			if rng.Intn(4) > 0 {
				spec.ID = ids[rng.Intn(len(ids))]
			}
			drain := rng.Intn(6) == 0
			if old, ok := s.store.Get(spec.ID, time.Now()); ok && spec.ID != "" {
				seen["resubmit over "+string(old.State())]++
			}
			setDraining(drain)
			job, err := s.Submit(spec)
			setDraining(false)
			var rej *Rejection
			if job != nil {
				seen["submit -> "+string(job.State())]++
			}
			switch {
			case err == nil:
				if st := job.State(); st != StateQueued && spec.ID == "" {
					fail("step %d: fresh submit left the job %s", step, st)
				}
			case errors.As(err, &rej) && job != nil:
				seen["refused: "+rej.Reason]++
				if job.State() != StateRejected || (drain && !errors.Is(err, ErrDraining)) {
					fail("step %d: refusal %v left the job %s", step, err, job.State())
				}
			default:
				fail("step %d: submit: %v", step, err)
			}
			check(fmt.Sprintf("step %d submit", step), job)
		case op < 9: // a worker takes the next job
			if s.queue.Len() == 0 {
				continue
			}
			job, _ := s.queue.Pop()
			if rng.Intn(4) == 0 {
				// A failed run: the start runJob applies, then the terminal
				// transition a run error takes.
				r := job.record()
				r.State, r.Started = StateRunning, time.Now()
				job.apply(&r)
				check(fmt.Sprintf("step %d start", step), job)
				s.finishJob(job, StateFailed, nil, nil, errors.New("injected run failure"), time.Now())
				seen["failed"]++
			} else {
				// A real run, held at its terminal write (the WAL lock) so
				// the running job can be checked.
				s.store.wmu.Lock()
				ran := make(chan struct{})
				go func() { defer close(ran); s.runJob(job) }()
				for deadline := time.Now().Add(10 * time.Second); job.State() != StateRunning; runtime.Gosched() {
					if time.Now().After(deadline) {
						s.store.wmu.Unlock()
						fail("step %d: job %s never started (%s)", step, job.ID, job.State())
					}
				}
				check(fmt.Sprintf("step %d running", step), job)
				s.store.wmu.Unlock()
				<-ran
				if job.State() != StateDone {
					fail("step %d: run left job %s %s (%s)", step, job.ID, job.State(), job.View().Error)
				}
				seen["done"]++
			}
		default: // time passes: some terminal job expires, with any older
			var ends []time.Time
			for _, job := range s.store.snapshotJobs() {
				if r := job.record(); r.State.Terminal() {
					ends = append(ends, r.Expires)
				}
			}
			if len(ends) == 0 {
				continue
			}
			if at := ends[rng.Intn(len(ends))].Add(time.Nanosecond); at.After(clock) {
				clock = at
			}
			seen["expired"] += s.store.Sweep(clock)
		}
		checkAll(fmt.Sprintf("step %d", step))
	}

	// Reopen the data dir at the history's clock: the fold of the
	// acknowledged records must be the live jobs.
	s.store.Sweep(clock)
	live := make(map[string]JobView)
	for _, job := range s.store.snapshotJobs() {
		live[job.ID] = job.View()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	st := newStore()
	if _, _, _, skipped := st.open(jnl, rec.Entries, t.Logf, clock); skipped != 0 {
		fail("reopen skipped %d records", skipped)
	}
	reopened := st.snapshotJobs()
	sort.Slice(reopened, func(i, k int) bool { return reopened[i].ID < reopened[k].ID })
	for _, job := range reopened {
		want, ok := live[job.ID]
		if !ok {
			fail("reopen restored %s (%s), which the live server does not hold", job.ID, job.State())
		}
		if got := job.View(); !sameRestoredView(want, got) {
			fail("reopen restored %s as\n%+v\nwant the live\n%+v", job.ID, got, want)
		}
		delete(live, job.ID)
	}
	for id := range live {
		fail("reopen lost job %s", id)
	}
	t.Logf("%d jobs reopened; history: %v", len(reopened), seen)
}

// FuzzDecodeRecord: WAL entries and replica payloads are input from
// outside the program, and decodeRecord is the one way in for both.
// Whatever the bytes, it (and servable) either refuses them or yields a
// record that re-encodes, decodes back to the same record, and rebuilds
// a job whose View does not panic.
func FuzzDecodeRecord(f *testing.F) {
	spec := JobSpec{ID: "fuzz-1", Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: 7, Record: true}
	bids, err := spec.materialize(Limits{})
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	admitted, err := admissionRecord(spec, bids, at)
	if err != nil {
		f.Fatal(err)
	}
	res, err := protocol.Run(protocol.RunConfig{Params: group.MustPreset(group.PresetTest64), TrueBids: bids,
		Seed: spec.Seed, Bid: bidcode.Config{W: spec.W, C: spec.C, N: len(bids)}, Record: true})
	if err != nil {
		f.Fatal(err)
	}
	done := admitted
	done.Started = at.Add(time.Millisecond)
	done.end(StateDone, buildResult(res, true), res.Transcript, "", at.Add(2*time.Millisecond), time.Minute)
	for _, r := range []jobRecord{admitted, done} {
		data, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecord(data)
		if err != nil {
			return
		}
		r.servable(time.Now())
		enc, err := encodeRecord(*r)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("record changed across an encode/decode round trip:\n%+v\n%+v", r, again)
		}
		jobFromRecord(*r).View()
	})
}

// TestAdmittedAnnouncedBeforeRunning: a worker may pop a job the instant
// enqueue pushes it, before its admitted event is out. The start is
// announced under the mutex enqueue holds through that announcement, so
// a job's history always opens with admitted — a replayed SSE stream
// that listed admitted after done would end at admitted. The test parks
// enqueue inside the announcement (on the per-tenant counter lock) with
// workers idle, and gives them time to run the job ahead of it.
func TestAdmittedAnnouncedBeforeRunning(t *testing.T) {
	s := startServer(t, testConfig())
	s.metrics.tenantMu.Lock()
	submitted := make(chan error, 1)
	go func() {
		_, err := s.Submit(JobSpec{ID: "order-1", Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: 1})
		submitted <- err
	}()
	var job *Job
	for deadline := time.Now().Add(10 * time.Second); job == nil; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			s.metrics.tenantMu.Unlock()
			t.Fatal("the job never reached the store")
		}
		job, _ = s.Get("order-1")
	}
	ranAhead := job.WaitDone(100 * time.Millisecond)
	s.metrics.tenantMu.Unlock()
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	// The terminal event is published just after done closes.
	var types []string
	for deadline := time.Now().Add(30 * time.Second); !slices.Contains(types, "done"); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no done event: %v", types)
		}
		types = types[:0]
		for _, ev := range job.Events() {
			types = append(types, ev.Type)
		}
	}
	if ranAhead || len(types) < 3 || types[0] != "admitted" || types[1] != "running" || types[len(types)-1] != "done" {
		t.Fatalf("job ran ahead of its admission (%v); events %v, want admitted, running, …, done", ranAhead, types)
	}
}
