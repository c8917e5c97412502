package server

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"dmw/internal/journal"
)

// openTestStore opens dir the way openJournal does, but with segments a
// few records long so a short history rotates often.
func openTestStore(t *testing.T, dir string, now time.Time) *store {
	t.Helper()
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever, SegmentBytes: 1500})
	if err != nil {
		t.Fatal(err)
	}
	st := newStore()
	st.open(jnl, rec.Entries, t.Logf, now)
	return st
}

// liveRecords is what the store holds that recovery at now must give
// back: each unexpired job's record, encoded.
func liveRecords(t *testing.T, st *store, now time.Time) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, job := range st.snapshotJobs() {
		if job.expired(now) {
			continue
		}
		data, err := encodeRecord(job.record())
		if err != nil {
			t.Fatal(err)
		}
		out[job.ID] = string(data)
	}
	return out
}

// recoverFiles writes files into a fresh directory, opens it as a
// journal and folds the replay the way recovery does: the last record
// per ID, minus terminal ones already expired at now.
func recoverFiles(t *testing.T, files map[string][]byte, now time.Time) map[string]string {
	t.Helper()
	dir := t.TempDir()
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatalf("recovery refused %v: %v", sortedNames(files), err)
	}
	defer jnl.Close()
	records, _ := replayEntries(rec.Entries, t.Logf)
	out := make(map[string]string)
	for _, r := range records {
		if r.State.Terminal() && now.After(r.Expires) {
			continue
		}
		data, err := encodeRecord(*r)
		if err != nil {
			t.Fatal(err)
		}
		out[r.ID] = string(data)
	}
	return out
}

// walFiles reads every segment and snapshot in dir.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range ents {
		if name := e.Name(); strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".snap") {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = raw
		}
	}
	return files
}

// sortedNames lists files in replay order: by sequence number, a
// snapshot before the segment it precedes.
func sortedNames(files map[string][]byte) []string {
	key := func(name string) string {
		seq := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(name, "wal-"), "snap-"), filepath.Ext(name))
		return seq + map[bool]string{true: "0", false: "1"}[strings.HasPrefix(name, "snap-")]
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Slice(names, func(i, k int) bool { return key(names[i]) < key(names[k]) })
	return names
}

// retireChecked runs st.retire and checks it at every crash point: the
// data dir as it stood before, with the first k retired files removed,
// must recover to the store's live records for every k — k = 0 is a
// crash before the first unlink, the last k is the dir retire leaves.
// It returns the retired files in replay order.
func retireChecked(t *testing.T, st *store, dir string, now time.Time) []string {
	t.Helper()
	before := walFiles(t, dir)
	st.retire()
	after := walFiles(t, dir)
	var retired, kept []string
	for _, name := range sortedNames(before) {
		if _, ok := after[name]; ok {
			kept = append(kept, name)
		} else if len(kept) > 0 {
			t.Fatalf("retire deleted %s but kept the older %v", name, kept)
		} else {
			retired = append(retired, name)
		}
	}
	want := liveRecords(t, st, now)
	for k := 0; k <= len(retired); k++ {
		files := make(map[string][]byte, len(before))
		for name, raw := range before {
			files[name] = raw
		}
		for _, name := range retired[:k] {
			delete(files, name)
		}
		if got := recoverFiles(t, files, now); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash after unlinking %v of %v recovers\n%v\nwant the live records\n%v", retired[:k], retired, got, want)
		}
	}
	return retired
}

// testJob builds a small job the way admission does.
func testJob(t *testing.T, id string, seed int64, now time.Time) *Job {
	t.Helper()
	bids := [][]int{{1}, {2}, {3}, {3}}
	job, err := newJob(JobSpec{ID: id, Bids: bids, W: []int{1, 2, 3}, Seed: seed}, bids, now)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// finishTest applies a terminal transition through the store, as
// finishJob does.
func finishTest(t *testing.T, st *store, job *Job, state JobState, now time.Time, ttl time.Duration) {
	t.Helper()
	var res *JobResult
	errMsg := ""
	if state == StateDone {
		res = &JobResult{Schedule: []int{0}, Payments: []int64{int64(now.Second())}}
	} else {
		errMsg = "refused or failed"
	}
	rec := job.terminalRecord(state, res, nil, errMsg, now, ttl)
	data, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	st.Finish(job, &rec, data)
}

// TestRetireKeepsLiveRecords drives a store over a journal with tiny
// segments through seeded histories — admissions (some born rejected,
// as a drain refusal is), re-admissions over a rejection or an expired
// job, done/failed/rejected finishes, janitor sweeps, lazy eviction on
// lookup and restarts — and retires after every step. Retirement must
// happen, and neither the dir it leaves nor the dir at any crash point
// inside it may recover anything but the store's live records.
func TestRetireKeepsLiveRecords(t *testing.T) {
	const ttl = time.Minute
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
		st := openTestStore(t, dir, now)
		retired := 0
		for step := 0; step < 160; step++ {
			id := fmt.Sprintf("job-%d", rng.Intn(8))
			switch op := rng.Intn(20); {
			case op < 6: // admission or re-admission
				job := testJob(t, id, int64(step), now)
				if rng.Intn(5) == 0 {
					rec := job.terminalRecord(StateRejected, nil, nil, ErrDraining.Error(), now, ttl)
					job.finish(&rec)
				}
				if _, err := st.PutBatchIfAbsent([]*Job{job}, now); err != nil {
					t.Fatal(err)
				}
			case op < 12: // a terminal transition of some pending job
				var pending []*Job
				for _, job := range st.snapshotJobs() {
					if !job.State().Terminal() {
						pending = append(pending, job)
					}
				}
				if len(pending) > 0 {
					sort.Slice(pending, func(i, k int) bool { return pending[i].ID < pending[k].ID })
					job := pending[rng.Intn(len(pending))]
					finishTest(t, st, job, []JobState{StateDone, StateFailed, StateRejected}[rng.Intn(3)], now, ttl)
				}
			case op < 16: // time passes; the janitor sweeps
				now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
				st.Sweep(now)
			case op < 19: // time passes; a read evicts lazily
				now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
				st.Get(id, now)
			default: // restart
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				st = openTestStore(t, dir, now)
			}
			retired += len(retireChecked(t, st, dir, now))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if retired == 0 {
			t.Errorf("seed %d: 160 steps retired nothing", seed)
		}
		t.Logf("seed %d: %d files retired", seed, retired)
	}
}

// TestLegacySnapshotIsReadThenRetired: a data dir an older build shut
// down cleanly holds snap-N.snap (every retained job) and an empty
// wal-N.seg. A restart restores every job from it, writes nothing, and
// the first retirement after every restored job is superseded or
// expired deletes the snapshot.
func TestLegacySnapshotIsReadThenRetired(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UTC().Truncate(time.Second)
	var snap []byte
	want := make(map[string]jobRecord)
	for k := 0; k < 4; k++ {
		job := testJob(t, fmt.Sprintf("legacy-%d", k), int64(k), now.Add(-time.Minute))
		rec := job.record()
		if k > 0 { // one job was still queued at shutdown; the rest are done
			rec = job.terminalRecord(StateDone, &JobResult{Schedule: []int{k % 2}, Payments: []int64{int64(k)}}, nil, "", now, time.Hour)
		}
		data, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		snap = journal.AppendFrame(snap, journal.Entry{Kind: recKindJob, Data: data})
		want[rec.ID] = rec
	}
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000003.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000003.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	files := walFiles(t, dir)

	s, err := New(journalConfig(dir)) // not started: the queued job stays queued
	if err != nil {
		t.Fatal(err)
	}
	if replayed, _ := s.RecoveryStats(); replayed != len(want) {
		t.Errorf("replayed %d jobs, want %d", replayed, len(want))
	}
	for id, rec := range want {
		job, ok := s.Get(id)
		if !ok || job.State() != rec.State || !reflect.DeepEqual(job.Result(), rec.Result) {
			t.Fatalf("job %s not restored as %s with its result (found %v)", id, rec.State, ok)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := walFiles(t, dir); !reflect.DeepEqual(got, files) {
		t.Fatalf("restart and shutdown rewrote the data dir: %v, want %v", sortedNames(got), sortedNames(files))
	}

	// The restored jobs pin the snapshot until each is superseded or
	// evicted; then the first retirement past segment 3 takes it.
	st := openTestStore(t, dir, now)
	if got := retireChecked(t, st, dir, now); len(got) != 0 {
		t.Fatalf("retired %v while every restored job is still live", got)
	}
	queued, ok := st.Get("legacy-0", now)
	if !ok {
		t.Fatal("queued legacy job not restored")
	}
	finishTest(t, st, queued, StateDone, now, time.Hour)
	// Drain refusals fill segment 3 until a rotation seals it.
	for k := 0; st.wal.Stats().Active == 3; k++ {
		job := testJob(t, fmt.Sprintf("refused-%d", k), int64(k), now)
		rec := job.terminalRecord(StateRejected, nil, nil, ErrDraining.Error(), now, time.Minute)
		job.finish(&rec)
		if _, err := st.PutBatchIfAbsent([]*Job{job}, now); err != nil {
			t.Fatal(err)
		}
	}
	if got := retireChecked(t, st, dir, now); len(got) != 0 {
		t.Fatalf("retired %v while segment 3 holds live records", got)
	}
	later := now.Add(2 * time.Hour)
	if n := st.Sweep(later); n < len(want) {
		t.Fatalf("swept %d jobs, want every one", n)
	}
	got := retireChecked(t, st, dir, later)
	if !reflect.DeepEqual(got, []string{"snap-0000000000000003.snap", "wal-0000000000000003.seg"}) {
		t.Fatalf("first retirement deleted %v, want the snapshot and segment 3", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
