package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmw/internal/journal"
	"dmw/internal/replica"
)

// readWAL replays a copy of dir taken now — the bytes a kill -9 at this
// instant would leave behind — and returns every entry recovery would
// see. The live journal's LOCK is not disturbed: the copy has its own.
func readWAL(t *testing.T, dir string) []journal.Entry {
	t.Helper()
	cp := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".seg") && !strings.HasSuffix(f.Name(), ".snap") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, f.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: cp, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	return rec.Entries
}

// lastRecord decodes the last kind-1 entry for id.
func lastRecord(t *testing.T, entries []journal.Entry, id string) (jobRecord, []byte) {
	t.Helper()
	var last jobRecord
	var raw []byte
	for _, e := range entries {
		if e.Kind != recKindJob {
			continue
		}
		if r, err := decodeRecord(e.Data); err == nil && r.ID == id {
			last, raw = *r, e.Data
		}
	}
	if raw == nil {
		t.Fatalf("no record for %s in the WAL", id)
	}
	return last, raw
}

// TestTerminalRecordDurableBeforeVisible pins docs/DURABILITY.md's "the
// WAL append happens before the job is observable as done": while the
// store's WAL lock is held — i.e. while the terminal append cannot
// happen — a job whose run has long finished must still read running
// and its waiters must still be asleep. A kill -9 in that window then
// costs a re-run, never a result a client already saw.
func TestTerminalRecordDurableBeforeVisible(t *testing.T) {
	s := startServer(t, journalConfig(t.TempDir()))
	job, err := s.Submit(JobSpec{Bids: [][]int{{1}, {3}, {2}, {3}}, W: []int{1, 2, 3}, Seed: 3, LinkDelayMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); job.State() != StateRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (state %s)", job.State())
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.store.wmu.Lock()
	finished := job.WaitDone(200 * time.Millisecond)
	state := job.State()
	s.store.wmu.Unlock()
	if finished || state != StateRunning {
		t.Fatalf("job observable as finished=%v state=%s while its terminal record could not be appended", finished, state)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish after the WAL lock was released")
	}
	assertMatchesDirectRun(t, job)
}

// TestAcknowledgedDoneIsInTheWAL is the deterministic companion: the
// instant a waiter is woken, the bytes on disk must already replay the
// job as done, transcript included.
func TestAcknowledgedDoneIsInTheWAL(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, journalConfig(dir))
	for k := 0; k < 8; k++ {
		job, err := s.Submit(JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: int64(k), Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if !job.WaitDone(30 * time.Second) {
			t.Fatal("job did not finish")
		}
		records, skipped := replayEntries(readWAL(t, dir), t.Logf)
		if skipped != 0 {
			t.Fatalf("replay skipped %d records", skipped)
		}
		var got *jobRecord
		for _, r := range records {
			if r.ID == job.ID {
				got = r
			}
		}
		if got == nil || got.State != StateDone || got.Transcript == nil || !reflect.DeepEqual(got.Result, job.Result()) {
			t.Fatalf("job %s acknowledged done but the WAL replays it as %+v", job.ID, got)
		}
	}
}

// foldRecords is replayEntries reduced to what recovery keeps: the
// surviving record per ID, re-encoded so records compare by value.
func foldRecords(t *testing.T, entries []journal.Entry) (map[string]string, []journal.Entry) {
	t.Helper()
	records, _ := replayEntries(entries, func(string, ...any) {})
	byID := make(map[string]string, len(records))
	state := make([]journal.Entry, 0, len(records))
	for _, r := range records {
		data, err := encodeRecord(*r)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := byID[r.ID]; dup {
			t.Fatalf("replay kept two records for %s", r.ID)
		}
		byID[r.ID] = string(data)
		state = append(state, journal.Entry{Kind: recKindJob, Data: data})
	}
	return byID, state
}

// TestReplayIsLastWriterWins: because every record is a full record and
// the last one per ID wins, a state folded at ANY point c may stand in
// for every record before any r <= c — replaying state(c) followed by
// history[r:] folds to exactly what replaying the whole history does.
// That is why recovery may replay an older build's snapshot followed by
// whatever segments remain after it. Histories are
// seeded random walks over a handful of IDs: admissions, re-admissions
// after a rejection, done/failed/rejected finishes, verbatim duplicates,
// undecodable payloads and frames of unknown kinds.
func TestReplayIsLastWriterWins(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := make(map[string]*jobRecord)
		var history []journal.Entry
		for step := 0; step < 32; step++ {
			id := fmt.Sprintf("job-%d", rng.Intn(5))
			at := base.Add(time.Duration(step) * time.Second)
			cur := live[id]
			switch op := rng.Intn(10); {
			case op == 0 && len(history) > 0: // verbatim duplicate of an earlier frame
				history = append(history, history[rng.Intn(len(history))])
				continue
			case op == 1: // a frame from another build, or a damaged payload
				kinds := []byte{2, 3, 9, recKindJob}
				history = append(history, journal.Entry{Kind: kinds[rng.Intn(len(kinds))], Data: []byte(`{"id":"` + id + `",`)})
				continue
			case cur == nil || cur.State == StateRejected || (cur.State.Terminal() && op == 2):
				// Admission, re-admission over a rejection, or re-admission
				// after a TTL expiry — sometimes born rejected (drain).
				cur = &jobRecord{ID: id, Spec: JobSpec{ID: id, Seed: int64(step)}, Bids: [][]int{{1}, {2}}, State: StateQueued, Submitted: at}
				if rng.Intn(4) == 0 {
					cur.State, cur.Error, cur.Finished, cur.Expires = StateRejected, ErrDraining.Error(), at, at.Add(time.Minute)
				}
			case !cur.State.Terminal():
				next := *cur
				next.Started, next.Finished, next.Expires = at.Add(-time.Millisecond), at, at.Add(time.Minute)
				switch rng.Intn(3) {
				case 0:
					next.State, next.Result = StateDone, &JobResult{Schedule: []int{step % 2}, Payments: []int64{int64(step)}}
				case 1:
					next.State, next.Error = StateFailed, "boom"
				default:
					next.State, next.Error = StateRejected, ErrQueueFull.Error()
				}
				cur = &next
			default:
				continue // terminal and retained: nothing more is written for it
			}
			live[id] = cur
			data, err := encodeRecord(*cur)
			if err != nil {
				t.Fatal(err)
			}
			history = append(history, journal.Entry{Kind: recKindJob, Data: data})
		}

		want, _ := foldRecords(t, history)
		if len(want) == 0 {
			t.Fatalf("seed %d: history folded to nothing", seed)
		}
		for c := 0; c <= len(history); c++ {
			_, snapshot := foldRecords(t, history[:c])
			for r := 0; r <= c; r++ {
				replay := append(append([]journal.Entry(nil), snapshot...), history[r:]...)
				if got, _ := foldRecords(t, replay); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: snapshot captured at %d over segments from %d replays to\n%v\nwant\n%v", seed, c, r, got, want)
				}
			}
		}
	}
}

// TestParentFormatTailIsSkippedAndRerun: a WAL tail written by the
// build before the one-record journal (and cut by kill -9) holds
// kind-2 {id, started} and kind-3 {id, state, result, ...} delta frames.
// They are input from outside the program now: recovery counts both as
// skipped, re-enqueues the job from its admission record, and the
// re-run reproduces the very result the kind-3 frame carried.
func TestParentFormatTailIsSkippedAndRerun(t *testing.T) {
	spec := JobSpec{ID: "old-1", Random: &RandomSpec{Agents: 5, Tasks: 2}, W: []int{1, 2, 3}, Seed: 77}
	ref := startServer(t, testConfig())
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !refJob.WaitDone(30 * time.Second) {
		t.Fatal("reference job did not finish")
	}
	admitted := refJob.record()
	admitted.State, admitted.Result = StateQueued, nil
	admitted.Started, admitted.Finished, admitted.Expires = time.Time{}, time.Time{}, time.Time{}
	admission, err := encodeRecord(admitted)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	started, _ := json.Marshal(map[string]any{"id": spec.ID, "started": now})
	finished, _ := json.Marshal(map[string]any{"id": spec.ID, "state": StateDone, "result": refJob.Result(),
		"finished": now, "expires": now.Add(time.Hour)})

	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.AppendBatch([]journal.Entry{{Kind: recKindJob, Data: admission}, {Kind: 2, Data: started}, {Kind: 3, Data: finished}}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	var logs strings.Builder
	cfg := journalConfig(dir)
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	s := startServer(t, cfg)
	if !strings.Contains(logs.String(), "1 re-enqueued") || !strings.Contains(logs.String(), "2 records skipped") {
		t.Errorf("recovery should report 1 job re-enqueued and 2 records skipped; got:\n%s", logs.String())
	}
	if replayed, _ := s.RecoveryStats(); replayed != 1 {
		t.Errorf("replayed %d jobs, want 1", replayed)
	}
	job := waitTerminal(t, s, spec.ID, 30*time.Second)
	if !reflect.DeepEqual(job.Result(), refJob.Result()) {
		t.Errorf("re-run result %+v differs from the one the kind-3 frame carried %+v", job.Result(), refJob.Result())
	}
}

// TestRestartKeepsLatencyDecomposition: started_at, queue_wait_ms and
// run_ms of a terminal job survive a crash. The queued -> running
// transition is not journaled; the terminal record carries `started`.
func TestRestartKeepsLatencyDecomposition(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	job, err := s1.Submit(JobSpec{Random: &RandomSpec{Agents: 5, Tasks: 2}, W: []int{1, 2, 3}, Seed: 5, LinkDelayMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !job.WaitDone(30 * time.Second) {
		t.Fatal("job did not finish")
	}
	before := job.View()
	s1.crashForTest() // recovery reads the terminal WAL record

	s2 := startServer(t, journalConfig(dir))
	restored, ok := s2.Get(job.ID)
	if !ok {
		t.Fatal("terminal job lost across the crash")
	}
	after := restored.View()
	if before.StartedAt == "" || before.RunMS <= 0 {
		t.Fatalf("view before the crash has no latency decomposition: %+v", before)
	}
	// The live view subtracts monotonic clock readings, the restored one
	// wall-clock stamps: equal to well under a microsecond, not bit-equal.
	const slackMS = 0.01
	if after.StartedAt != before.StartedAt || after.FinishedAt != before.FinishedAt ||
		math.Abs(after.QueueWaitMS-before.QueueWaitMS) > slackMS || math.Abs(after.RunMS-before.RunMS) > slackMS {
		t.Errorf("after restart (started %s, finished %s, queue_wait %v, run %v), want (%s, %s, %v, %v)",
			after.StartedAt, after.FinishedAt, after.QueueWaitMS, after.RunMS,
			before.StartedAt, before.FinishedAt, before.QueueWaitMS, before.RunMS)
	}
}

// TestTerminalRecordIsTheReplicaPayload: the terminal transition encodes
// the record once — the bytes in the WAL's terminal entry ARE the
// payload the ring successor receives — and the journal grows by
// exactly two appends per completed job (admission, terminal) and one
// per drain rejection (born terminal).
func TestTerminalRecordIsTheReplicaPayload(t *testing.T) {
	dir := t.TempDir()
	a, tsA := startHTTP(t, journalConfig(dir))
	b, tsB := startHTTP(t, testConfig())
	peers := []replica.Peer{{Name: "a", URL: tsA.URL, Weight: 1}, {Name: "b", URL: tsB.URL, Weight: 1}}
	a.ApplyFleetView(replica.View{Epoch: 1, Self: "a", Replication: 2, Peers: peers})
	b.ApplyFleetView(replica.View{Epoch: 1, Self: "b", Replication: 2, Peers: peers})

	appends := func() uint64 {
		st, ok := a.JournalStats()
		if !ok {
			t.Fatal("server a is not journal-backed")
		}
		return st.Appends
	}
	const jobs = 3
	before := appends()
	ids := make([]string, jobs)
	for k := range ids {
		job, err := a.Submit(JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: int64(k), Record: true})
		if err != nil {
			t.Fatal(err)
		}
		if !job.WaitDone(30 * time.Second) {
			t.Fatal("job did not finish")
		}
		ids[k] = job.ID
	}
	if got := appends() - before; got != 2*jobs {
		t.Errorf("%d completed jobs appended %d WAL records, want %d (admission + terminal each)", jobs, got, 2*jobs)
	}

	entries := readWAL(t, dir)
	for _, id := range ids {
		rec, walBytes := lastRecord(t, entries, id)
		if rec.State != StateDone || rec.Transcript == nil {
			t.Fatalf("last WAL record for %s is %s (transcript %v), want done with a transcript", id, rec.State, rec.Transcript != nil)
		}
		var copyRec replica.Record
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			var ok bool
			if copyRec, ok = b.replStore.Get(id, time.Now()); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("record %s never reached the ring successor", id)
			}
		}
		if !bytes.Equal(copyRec.Payload, walBytes) {
			t.Errorf("job %s: replica payload (%d B) is not the WAL's terminal entry (%d B)", id, len(copyRec.Payload), len(walBytes))
		}
	}

	// A drain refusal is born terminal: one record, not admission + finish.
	// (Unstarted server: beginDrain leaves the store open, as the window
	// between Shutdown's first step and its last does.)
	d, err := New(journalConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	beginDrain(d)
	job, err := d.Submit(JobSpec{Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: 99})
	if job == nil || job.State() != StateRejected {
		t.Fatalf("draining submit: job %v err %v, want a rejected record", job, err)
	}
	if st, _ := d.JournalStats(); st.Appends != 1 {
		t.Errorf("drain rejection appended %d WAL records, want 1", st.Appends)
	}
}
