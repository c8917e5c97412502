package server

import (
	"fmt"
	"sync"
	"time"

	"dmw/internal/journal"
)

// store is the job index behind a Server: a map of live jobs, written
// through to a WAL when a data directory is configured (wal non-nil)
// and purely in memory otherwise. Jobs are small, so the whole working
// set lives in the map either way: reads are O(1) map hits under mu and
// never wait on a disk. Every journaled record is a full jobRecord —
// written at admission and again at the terminal transition — so
// recovery is "the last record per ID wins" (replayEntries).
//
// Terminal jobs are retained for the configured TTL so clients can
// poll results, then evicted by the janitor (and opportunistically on
// lookup, so a stopped janitor — e.g. in tests — still converges).
// Evicted jobs are not individually journaled: they simply stop
// appearing in the next compaction snapshot, and recovery re-drops any
// replayed record whose TTL deadline has already passed.
//
// TTL contract (pinned by TestSweepPreservesRestoredTTL): a terminal
// job's retention clock is measured from its COMPLETION time — expires
// is set exactly once, in the terminal record Job.finish applies (or
// carried verbatim inside a journal record) — and is preserved across
// restarts. Recovery reinserts a restored terminal job with its
// original expires, never a fresh now+TTL, so Sweep evicts it at the
// same wall-clock instant it would have been evicted had the process
// never crashed; jobs already past their deadline at recovery time are
// dropped during replay instead of being resurrected. Sweep never
// touches non-terminal jobs.
type store struct {
	// mu guards jobs and nothing else; it is never held across a disk
	// write. Lock order is wmu -> mu and wmu -> Job.mu; mu and Job.mu
	// are never held together, and Job methods never call back into the
	// store.
	mu   sync.Mutex
	jobs map[string]*Job

	// wmu serializes every write — admission and terminal transition —
	// against each other and against snapshot compaction: an append that
	// slipped between reading the in-memory state and journal.Snapshot
	// would land in a segment the snapshot deletes, and a state change
	// applied before its append would be observable without being
	// durable. It is also what makes admission's lookup/insert pair
	// atomic per ID. (Sweep and lazy Get-eviction bypass wmu but only
	// ever delete expired records, which would not have deduped anyway.)
	wmu sync.Mutex
	wal *journal.Journal
	// snapshotEvery triggers compaction after this many appends
	// (0 disables automatic compaction).
	snapshotEvery uint64
	logf          func(format string, args ...any)
}

func newStore() *store {
	return &store{jobs: make(map[string]*Job)}
}

// insert indexes jobs unconditionally: recovery reinserting replayed
// records. Admission goes through PutBatchIfAbsent.
func (s *store) insert(jobs ...*Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
	}
}

// PutBatchIfAbsent is the one admission write. It atomically indexes
// each job UNLESS a live (unexpired) job with the same ID already
// exists in a non-rejected state — then that slot's existing job is
// returned and the index is unchanged. The check and the insert happen
// under wmu, so two concurrent submissions of the same ID admit exactly
// one job (the idempotency contract gateway retries rely on). An
// existing rejected record is REPLACED: rejection is a transient
// backpressure refusal, and a retry of that ID must be able to run (see
// Job.matchesResubmit); it simply gets a fresh admission append for the
// same ID, and the later record wins on replay. A single submit is a
// batch of one. With a WAL the newly admitted subset is persisted with
// one append batch (one fsync under the always policy) before it is
// indexed, and the admission fails if the records cannot be made
// durable. existing is positionally aligned with jobs; a non-nil entry
// means that slot deduped to the returned job and the corresponding
// input was not stored.
func (s *store) PutBatchIfAbsent(jobs []*Job, now time.Time) ([]*Job, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	existing := make([]*Job, len(jobs))
	var entries []journal.Entry
	for i, job := range jobs {
		if old, ok := s.Get(job.ID, now); ok && old.matchesResubmit(now) {
			existing[i] = old
		} else if s.wal != nil {
			data, err := encodeRecord(job.record())
			if err != nil {
				return nil, err
			}
			entries = append(entries, journal.Entry{Kind: recKindJob, Data: data})
		}
	}
	if len(entries) > 0 {
		if err := s.wal.AppendBatch(entries); err == journal.ErrClosed {
			// Shutdown race: the WAL is already sealed. The only admissions
			// possible at this point are drain rejections; keep them
			// queryable in memory rather than failing the 503.
			s.logf("journal closed; keeping %d admission record(s) in memory only", len(entries))
		} else if err != nil {
			return nil, fmt.Errorf("server: journaling admission: %w", err)
		}
	}
	s.mu.Lock()
	for i, job := range jobs {
		if existing[i] == nil {
			// Absent, expired, or rejected: (re-)admit job in its place.
			s.jobs[job.ID] = job
		}
	}
	s.mu.Unlock()
	s.maybeCompactLocked()
	return existing, nil
}

// Finish is the one terminal write: it journals data — job's encoded
// terminal record rec — and only THEN applies rec to the job, so a job
// is never observable as done (Job.Done closes, GET answers a terminal
// state) before the record that says so is in the WAL. The append is
// best-effort: the job is already durable as queued, so a failed append
// degrades to "result recomputed on recovery" — safe because runs are
// deterministic in spec and seed. Compaction runs after the apply, so
// the snapshot it takes already holds the terminal state.
func (s *store) Finish(job *Job, rec *jobRecord, data []byte) {
	if s.wal == nil || data == nil {
		job.finish(rec)
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := s.wal.Append(journal.Entry{Kind: recKindJob, Data: data})
	if err != nil && err != journal.ErrClosed {
		s.logf("journal: terminal record for %s: %v", job.ID, err)
	}
	job.finish(rec)
	s.maybeCompactLocked()
}

// Get looks a job up, evicting it lazily when expired.
func (s *store) Get(id string, now time.Time) (*Job, bool) {
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

// Len counts indexed jobs without evicting: expired terminal jobs the
// janitor has not swept yet are included.
func (s *store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Sweep evicts every expired job and returns how many were removed.
// Only terminal jobs can expire (Job.expired requires a terminal
// state), and their deadline is the completion-time expires stamp —
// restored jobs carry the original one, so a post-recovery sweep
// behaves exactly like an uninterrupted process (see the TTL contract
// above).
func (s *store) Sweep(now time.Time) int {
	removed := 0
	for _, j := range s.snapshotJobs() {
		if j.expired(now) { // takes j.mu; never held together with s.mu
			s.mu.Lock()
			// Same identity re-check as Get: only evict the job we
			// examined, not a re-admitted replacement under the same ID.
			if s.jobs[j.ID] == j {
				delete(s.jobs, j.ID)
				removed++
			}
			s.mu.Unlock()
		}
	}
	return removed
}

// snapshotJobs returns every indexed job (live or expired; the caller
// filters): the sweep's work list, the compaction snapshot's input, and
// the drain-time handoff enumeration.
func (s *store) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// maybeCompactLocked snapshots the full live state and truncates
// superseded segments once enough appends have accumulated. It runs
// synchronously on the appending goroutine (worker or submitter):
// snapshots are small (the live job set) and running under wmu keeps
// the log/snapshot ordering trivially consistent.
func (s *store) maybeCompactLocked() {
	if s.wal == nil || s.snapshotEvery == 0 {
		return
	}
	if s.wal.Stats().AppendsSinceSnapshot < s.snapshotEvery {
		return
	}
	if err := s.compactLocked(); err != nil && err != journal.ErrClosed {
		s.logf("journal: snapshot compaction: %v", err)
	}
}

// compactNow forces a snapshot compaction (used right after recovery
// and by tests).
func (s *store) compactNow() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.compactLocked()
}

// compactLocked writes a full-state snapshot now. Caller holds wmu.
func (s *store) compactLocked() error {
	jobs := s.snapshotJobs()
	entries := make([]journal.Entry, 0, len(jobs))
	for _, job := range jobs {
		data, err := encodeRecord(job.record())
		if err != nil {
			return err
		}
		entries = append(entries, journal.Entry{Kind: recKindJob, Data: data})
	}
	return s.wal.Snapshot(entries)
}

// Close takes a final snapshot (so the next start replays one compact
// file instead of the whole tail) and seals the WAL. Called after the
// drain completes, so every job is quiescent. In memory it is a no-op.
func (s *store) Close() error {
	if s.wal == nil {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.compactLocked(); err != nil && err != journal.ErrClosed {
		s.logf("journal: final snapshot: %v", err)
	}
	return s.wal.Close()
}
