package server

import (
	"sync"
	"time"
)

// Store is the job index behind a Server. The in-memory store is the
// default; when a data directory is configured the journal-backed store
// (journalstore.go) wraps it write-through: every lifecycle transition
// is appended to the WAL before it becomes visible, while reads stay
// O(1) lock-held map hits — jobs are small, so the whole working set
// lives in memory either way.
//
// TTL contract (pinned by TestSweepPreservesRestoredTTL): a terminal
// job's retention clock is measured from its COMPLETION time — expires
// is set exactly once, by Job.finish (or carried verbatim inside a
// journal record) — and is preserved across restarts. Recovery
// reinserts a restored terminal job with its original expires, never a
// fresh now+TTL, so Sweep evicts it at the same wall-clock instant it
// would have been evicted had the process never crashed; jobs already
// past their deadline at recovery time are dropped during replay
// instead of being resurrected. Sweep never touches non-terminal jobs.
type Store interface {
	// PutBatchIfAbsent is the one admission write. It atomically indexes
	// each job UNLESS a live (unexpired) job with the same ID already
	// exists in a non-rejected state — then that slot's existing job is
	// returned and the index is unchanged. The check and the insert
	// happen under one lock, so two concurrent submissions of the same
	// ID admit exactly one job (the idempotency contract gateway retries
	// rely on). An existing rejected record is REPLACED: rejection is a
	// transient backpressure refusal, and a retry of that ID must be able
	// to run (see Job.matchesResubmit). A single submit is a batch of
	// one. The journal-backed store persists the newly admitted subset
	// with one append batch (one fsync under the always policy) before
	// indexing it, and fails the admission if the records cannot be made
	// durable. existing is positionally aligned with jobs; a non-nil
	// entry means that slot deduped to the returned job and the
	// corresponding input was not stored.
	PutBatchIfAbsent(jobs []*Job, now time.Time) (existing []*Job, err error)
	// Get looks a job up, evicting it lazily when expired.
	Get(id string, now time.Time) (*Job, bool)
	// Len counts live (unexpired) jobs without evicting.
	Len() int
	// Sweep evicts every expired terminal job, returning the count.
	Sweep(now time.Time) int
	// Started records a queued -> running transition (after the job's
	// own state change). Best-effort in the journal-backed store: the
	// job is already durable as queued, and a lost running marker only
	// costs a redundant re-run after a crash.
	Started(j *Job)
	// Finished records a terminal transition (after the job's own state
	// change), persisting the result and its TTL deadline.
	Finished(j *Job)
	// Close flushes and releases the store (final snapshot + WAL close
	// for the journal-backed store). The in-memory store is a no-op.
	Close() error
}

// memStore is the in-memory job index. Terminal jobs are retained for
// the configured TTL so clients can poll results, then evicted by the
// janitor (and opportunistically on lookup, so a stopped janitor —
// e.g. in tests — still converges).
type memStore struct {
	mu   sync.Mutex
	jobs map[string]*Job
}

func newMemStore() *memStore {
	return &memStore{jobs: make(map[string]*Job)}
}

// insert indexes jobs unconditionally: recovery reinserting replayed
// records, and the journal-backed store indexing what it just made
// durable. Admission goes through PutBatchIfAbsent.
func (s *memStore) insert(jobs ...*Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
	}
}

// PutBatchIfAbsent holds s.mu across the lookup AND the insert, making
// admission atomic per ID. Lock order is always store mutex -> Job.mu
// (matchesResubmit), never the reverse — Job methods never call back
// into a store — so holding both is safe.
func (s *memStore) PutBatchIfAbsent(jobs []*Job, now time.Time) ([]*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	existing := make([]*Job, len(jobs))
	for i, j := range jobs {
		if old, ok := s.jobs[j.ID]; ok && old.matchesResubmit(now) {
			existing[i] = old
			continue
		}
		// Absent, expired, or rejected: (re-)admit j in its place.
		s.jobs[j.ID] = j
	}
	return existing, nil
}

func (s *memStore) Get(id string, now time.Time) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	if j.expired(now) {
		s.mu.Lock()
		// Re-check identity: a concurrent re-admission may have replaced
		// the expired record since we released the lock; never evict the
		// replacement.
		if s.jobs[id] == j {
			delete(s.jobs, id)
		}
		s.mu.Unlock()
		return nil, false
	}
	return j, true
}

// Len counts live (unexpired) jobs without evicting.
func (s *memStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Sweep evicts every expired job and returns how many were removed.
// Only terminal jobs can expire (Job.expired requires a terminal
// state), and their deadline is the completion-time expires stamp —
// restored jobs carry the original one, so a post-recovery sweep
// behaves exactly like an uninterrupted process (see the Store
// contract above).
func (s *memStore) Sweep(now time.Time) int {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()

	removed := 0
	for _, id := range ids {
		s.mu.Lock()
		j, ok := s.jobs[id]
		s.mu.Unlock()
		if !ok {
			continue
		}
		if j.expired(now) { // takes j.mu; never held together with s.mu
			s.mu.Lock()
			// Same identity re-check as Get: only evict the job we
			// examined, not a re-admitted replacement under the same ID.
			if s.jobs[id] == j {
				delete(s.jobs, id)
				removed++
			}
			s.mu.Unlock()
		}
	}
	return removed
}

// Started / Finished are lifecycle no-ops in memory: the Job itself is
// the source of truth and it is already in the map.
func (s *memStore) Started(j *Job)  {}
func (s *memStore) Finished(j *Job) {}

// Close is a no-op for the in-memory store.
func (s *memStore) Close() error { return nil }

// snapshotJobs returns every indexed job (live or expired; the caller
// filters). Used by the journal-backed store to build compaction
// snapshots.
func (s *memStore) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}
