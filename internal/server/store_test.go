package server

import (
	"testing"
	"time"
)

// restoredJob builds a Job the way recovery does: from a journal
// record, carrying the original completion-time Expires stamp.
func restoredJob(id string, state JobState, finished, expires time.Time) *Job {
	return jobFromRecord(jobRecord{
		ID:        id,
		Spec:      JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}},
		Bids:      [][]int{{1}, {2}, {3}, {3}},
		State:     state,
		Submitted: finished.Add(-time.Second),
		Started:   finished.Add(-time.Second),
		Finished:  finished,
		Expires:   expires,
	})
}

// TestSweepPreservesRestoredTTL pins the Store TTL contract: retention
// is measured from job COMPLETION, the deadline is carried verbatim
// through the journal, and a post-recovery sweep therefore evicts at
// the same wall-clock instant an uninterrupted process would have —
// NOT at recovery time + TTL.
func TestSweepPreservesRestoredTTL(t *testing.T) {
	const ttl = 10 * time.Minute
	now := time.Now()
	// The job completed 5 minutes ago with a 10-minute TTL, then the
	// process crashed and recovered "now": 5 minutes of budget remain.
	finished := now.Add(-5 * time.Minute)
	expires := finished.Add(ttl)

	st := newStore()
	st.insert(restoredJob("job-restored", StateDone, finished, expires))

	// Before the original deadline the job must survive every sweep,
	// including ones long after recovery started.
	for _, at := range []time.Time{now, expires.Add(-time.Second)} {
		if n := st.Sweep(at); n != 0 {
			t.Fatalf("sweep at %v evicted %d jobs before the original deadline %v", at, n, expires)
		}
	}
	if _, ok := st.Get("job-restored", expires.Add(-time.Second)); !ok {
		t.Fatal("restored job missing before its original deadline")
	}

	// At the original deadline it goes — even though recovery-time + TTL
	// (now + 10m) is still far in the future. A buggy store that restamps
	// expires at recovery would keep it alive here.
	if n := st.Sweep(expires.Add(time.Second)); n != 1 {
		t.Fatalf("sweep after the original deadline evicted %d jobs, want 1", n)
	}
	if _, ok := st.Get("job-restored", expires.Add(time.Second)); ok {
		t.Fatal("restored job still present after its original deadline")
	}
}

// TestSweepIgnoresNonTerminal pins the other half of the contract:
// queued/running jobs (including crash-restored re-enqueued ones, which
// come back as queued with a zero expires) are never swept, no matter
// how old they are.
func TestSweepIgnoresNonTerminal(t *testing.T) {
	st := newStore()
	old := time.Now().Add(-24 * time.Hour)
	st.insert(restoredJob("job-requeued", StateRunning, time.Time{}, time.Time{}))
	job, err := newJob(JobSpec{Bids: [][]int{{1}, {2}, {3}, {3}}, W: []int{1, 2, 3}}, [][]int{{1}, {2}, {3}, {3}}, old)
	if err != nil {
		t.Fatal(err)
	}
	st.insert(job)

	if n := st.Sweep(time.Now().Add(365 * 24 * time.Hour)); n != 0 {
		t.Fatalf("sweep evicted %d non-terminal jobs, want 0", n)
	}
	if st.Len() != 2 {
		t.Fatalf("store has %d jobs, want 2", st.Len())
	}
}

// TestGetEvictsLazily checks the lookup path enforces the same
// completion-anchored deadline as the janitor sweep.
func TestGetEvictsLazily(t *testing.T) {
	st := newStore()
	finished := time.Now().Add(-time.Hour)
	expires := finished.Add(time.Minute)
	st.insert(restoredJob("job-stale", StateDone, finished, expires))
	if _, ok := st.Get("job-stale", time.Now()); ok {
		t.Fatal("expired job returned by Get")
	}
	if st.Len() != 0 {
		t.Fatalf("store has %d jobs after lazy eviction, want 0", st.Len())
	}
}
