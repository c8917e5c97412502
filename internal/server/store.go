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
// Evicted jobs are not individually journaled: their records simply
// stop pinning the segments they sit in (see retire), and recovery
// re-drops any replayed record whose TTL deadline has already passed.
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
	// mu guards jobs, live, oldest and every Job.seg; it is never held
	// across a disk write. Lock order is wmu -> mu and wmu -> Job.mu; mu
	// and Job.mu are never held together, and Job methods never call
	// back into the store.
	mu   sync.Mutex
	jobs map[string]*Job
	// live counts, per WAL segment, the indexed jobs whose last
	// journaled record lives there (Job.seg); oldest is the lowest
	// segment not yet retired. A record is live while it is the last one
	// of a job still in the index, so a sealed segment whose count is
	// zero — and every older one with it — holds nothing recovery needs.
	// nil for the in-memory store.
	live   map[uint64]int
	oldest uint64

	// wmu serializes every write — admission and terminal transition —
	// against each other and against retire, which therefore reads
	// counts that match the records on disk exactly: no append sits
	// between landing in a segment and recharging its job. Every write
	// appends before it applies: a state change applied first would be
	// observable without being durable. wmu is also what makes
	// admission's lookup/insert pair atomic per ID. (Sweep and lazy
	// Get-eviction bypass wmu but only ever delete expired records,
	// which would not have deduped anyway.)
	wmu  sync.Mutex
	wal  *journal.Journal
	logf func(format string, args ...any)
}

func newStore() *store {
	return &store{jobs: make(map[string]*Job)}
}

// open makes jnl the store's WAL and indexes what it replayed: the last
// record per ID, minus terminal jobs already past their TTL deadline
// (they stay dead, as an uninterrupted janitor would have left them).
// Every recovered job is charged to the segment active at open, so no
// replayed file is retired before every recovered job is superseded or
// evicted, and startup writes nothing. It returns the non-terminal jobs
// for the caller to re-enqueue.
func (s *store) open(jnl *journal.Journal, entries []journal.Entry, logf func(string, ...any), now time.Time) (requeue []*Job, restored, expired, skipped int) {
	s.wal, s.logf = jnl, logf
	s.live, s.oldest = make(map[uint64]int), jnl.Stats().Active
	records, skipped := replayEntries(entries, logf)
	for _, r := range records {
		job := jobFromRecord(*r)
		if job.State().Terminal() {
			if job.expired(now) {
				expired++
				continue
			}
			restored++
		} else {
			requeue = append(requeue, job)
		}
		s.insert(job)
	}
	return requeue, restored, expired, skipped
}

// insert indexes jobs unconditionally: recovery reinserting replayed
// records, each charged to the segment active at open. Admission goes
// through PutBatchIfAbsent.
func (s *store) insert(jobs ...*Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		s.jobs[j.ID] = j
		s.charge(j, s.oldest)
	}
}

// charge records that job's last journaled record is in segment seg;
// drop forgets it. Caller holds mu. Both are no-ops in memory.
func (s *store) charge(job *Job, seg uint64) {
	if s.live != nil {
		job.seg = seg
		s.live[seg]++
	}
}

func (s *store) drop(job *Job) {
	if s.live != nil {
		s.live[job.seg]--
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
	var seg uint64
	if len(entries) > 0 {
		if err := s.wal.AppendBatch(entries); err == journal.ErrClosed {
			// Shutdown race: the WAL is already sealed. The only admissions
			// possible at this point are drain rejections; keep them
			// queryable in memory rather than failing the 503.
			s.logf("journal closed; keeping %d admission record(s) in memory only", len(entries))
		} else if err != nil {
			return nil, fmt.Errorf("server: journaling admission: %w", err)
		}
		seg = s.wal.Stats().Active
	}
	s.mu.Lock()
	for i, job := range jobs {
		if existing[i] == nil {
			// Absent, expired, or rejected: (re-)admit job in its place.
			if old, ok := s.jobs[job.ID]; ok {
				s.drop(old)
			}
			s.jobs[job.ID] = job
			s.charge(job, seg)
		}
	}
	s.mu.Unlock()
	return existing, nil
}

// Finish is the one terminal write: it journals data — job's encoded
// terminal record rec — and only THEN applies rec to the job, so a job
// is never observable as done (Job.Done closes, GET answers a terminal
// state) before the record that says so is in the WAL. The append is
// best-effort: the job is already durable as queued, so a failed append
// degrades to "result recomputed on recovery" — safe because runs are
// deterministic in spec and seed — and leaves the job charged to the
// segment of its admission record.
func (s *store) Finish(job *Job, rec *jobRecord, data []byte) {
	if s.wal == nil || data == nil {
		job.finish(rec)
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	err := s.wal.Append(journal.Entry{Kind: recKindJob, Data: data})
	if err == nil {
		seg := s.wal.Stats().Active
		s.mu.Lock()
		s.drop(job)
		s.charge(job, seg)
		s.mu.Unlock()
	} else if err != journal.ErrClosed {
		s.logf("journal: terminal record for %s: %v", job.ID, err)
	}
	job.finish(rec)
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
		s.evict(j)
		return nil, false
	}
	return j, true
}

// evict removes j from the index and reports whether it did. The
// identity re-check matters: a concurrent re-admission may have replaced
// the expired record since the caller looked; never evict the
// replacement.
func (s *store) evict(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.ID] != j {
		return false
	}
	delete(s.jobs, j.ID)
	s.drop(j)
	return true
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
		if j.expired(now) && s.evict(j) { // expired takes j.mu; never held together with s.mu
			removed++
		}
	}
	return removed
}

// snapshotJobs returns every indexed job (live or expired; the caller
// filters): the sweep's work list and the drain-time handoff
// enumeration.
func (s *store) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// retire reclaims WAL space: it deletes the oldest run of sealed
// segments that hold no live record. Nothing is re-encoded or copied
// forward — every record dies on its own, superseded by a later record
// of its job or evicted at its TTL — so the work done under wmu is a
// walk over the counts, not over the retained set. The deletion itself
// (an fsync of the active segment, the unlinks, a directory fsync)
// runs after wmu and mu are released.
func (s *store) retire() {
	if s.wal == nil {
		return
	}
	s.wmu.Lock()
	active := s.wal.Stats().Active
	s.mu.Lock()
	from := s.oldest
	for s.oldest < active && s.live[s.oldest] == 0 {
		delete(s.live, s.oldest)
		s.oldest++
	}
	kept := s.oldest
	s.mu.Unlock()
	s.wmu.Unlock()
	if kept == from {
		return
	}
	// A failed Retire leaves dead files behind the cursor; they are
	// harmless to replay, and a later Retire deletes them.
	if err := s.wal.Retire(kept - 1); err != nil && err != journal.ErrClosed {
		s.logf("journal: retiring segments before %d: %v", kept, err)
	}
}

// Close seals the WAL; in memory it is a no-op. Called after the drain
// completes, so every job is quiescent. Nothing is written: the next
// start replays the segments as they stand.
func (s *store) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}
