package server

import (
	"fmt"
	"sync"
	"time"

	"dmw/internal/journal"
)

// journalStore is the WAL-backed Store: a write-through journal in
// front of the in-memory index. Admission records are appended (and,
// under the `always` policy, fsynced) before the job becomes visible
// anywhere, so an acknowledged submission is durable; reads never touch
// disk. One mutex serializes appends against snapshot compaction so a
// snapshot always reflects every append that precedes it in the log —
// the consistency requirement documented on journal.Snapshot.
type journalStore struct {
	// mu serializes every WAL append against snapshot compaction: an
	// append that slipped between reading the in-memory state and
	// journal.Snapshot would land in a segment the snapshot deletes.
	mu  sync.Mutex
	mem *memStore
	j   *journal.Journal

	// snapshotEvery triggers compaction after this many appends
	// (0 disables automatic compaction).
	snapshotEvery uint64
	logf          func(format string, args ...any)
}

func newJournalStore(mem *memStore, j *journal.Journal, snapshotEvery int, logf func(string, ...any)) *journalStore {
	if snapshotEvery < 0 {
		snapshotEvery = 0
	}
	return &journalStore{mem: mem, j: j, snapshotEvery: uint64(snapshotEvery), logf: logf}
}

// PutBatchIfAbsent journals and indexes the absent (or rejected-and-
// replaceable) subset of jobs with one append batch. s.mu makes the
// lookup/insert pair atomic: every admission goes through this mutex,
// so two concurrent submissions of the same ID resolve to one winner.
// (Sweep and lazy Get-eviction bypass s.mu but only ever delete
// expired records, which would not have deduped anyway.) A replaced
// rejected record simply gets a fresh admission append for the same
// ID; recovery replay lets the later full record win, so the re-run
// survives a crash too.
func (s *journalStore) PutBatchIfAbsent(jobs []*Job, now time.Time) ([]*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	existing := make([]*Job, len(jobs))
	var fresh []*Job
	var entries []journal.Entry
	for i, job := range jobs {
		if old, ok := s.mem.Get(job.ID, now); ok && old.matchesResubmit(now) {
			existing[i] = old
			continue
		}
		e, err := encodeRecord(recKindJob, job.record())
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
		fresh = append(fresh, job)
	}
	if len(fresh) == 0 {
		return existing, nil
	}
	if err := s.j.AppendBatch(entries); err != nil {
		if err != journal.ErrClosed {
			return nil, fmt.Errorf("server: journaling admission: %w", err)
		}
		// Shutdown race: the WAL is already sealed. The only admissions
		// possible at this point are drain rejections; keep them
		// queryable in memory rather than failing the 503.
		s.logf("journal closed; keeping %d admission record(s) in memory only", len(fresh))
		s.mem.insert(fresh...)
		return existing, nil
	}
	s.mem.insert(fresh...)
	s.maybeCompactLocked()
	return existing, nil
}

func (s *journalStore) Get(id string, now time.Time) (*Job, bool) { return s.mem.Get(id, now) }
func (s *journalStore) Len() int                                  { return s.mem.Len() }

// Sweep delegates to the in-memory index. Evicted jobs are not
// individually journaled: they simply stop appearing in the next
// compaction snapshot, and recovery re-drops any replayed record whose
// TTL deadline has already passed.
func (s *journalStore) Sweep(now time.Time) int { return s.mem.Sweep(now) }

// Started / Finished append lifecycle records. Best-effort: the job is
// already durable as queued, so a failed append degrades to "re-run on
// recovery" (Started) or "result recomputed on recovery" (Finished) —
// both safe because runs are deterministic in spec and seed.
func (s *journalStore) Started(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := encodeRecord(recKindStarted, startedRecord{ID: j.ID, Started: j.startedAt()})
	if err == nil {
		err = s.j.Append(e)
	}
	if err != nil && err != journal.ErrClosed {
		s.logf("journal: started record for %s: %v", j.ID, err)
	}
	s.maybeCompactLocked()
}

func (s *journalStore) Finished(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := j.finishedRecord()
	e, err := encodeRecord(recKindFinished, fr)
	if err == nil {
		err = s.j.Append(e)
	}
	if err != nil && err != journal.ErrClosed {
		s.logf("journal: finished record for %s: %v", j.ID, err)
	}
	s.maybeCompactLocked()
}

// maybeCompactLocked snapshots the full live state and truncates
// superseded segments once enough appends have accumulated. It runs
// synchronously on the appending goroutine (worker or submitter):
// snapshots are small (the live job set) and running under s.mu keeps
// the log/snapshot ordering trivially consistent.
func (s *journalStore) maybeCompactLocked() {
	if s.snapshotEvery == 0 {
		return
	}
	if s.j.Stats().AppendsSinceSnapshot < s.snapshotEvery {
		return
	}
	if err := s.compactLocked(); err != nil && err != journal.ErrClosed {
		s.logf("journal: snapshot compaction: %v", err)
	}
}

// compactNow forces a snapshot compaction (used right after recovery
// and by tests).
func (s *journalStore) compactNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked writes a full-state snapshot now. Caller holds s.mu.
func (s *journalStore) compactLocked() error {
	jobs := s.mem.snapshotJobs()
	entries := make([]journal.Entry, 0, len(jobs))
	for _, job := range jobs {
		e, err := encodeRecord(recKindJob, job.record())
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}
	return s.j.Snapshot(entries)
}

// Close takes a final snapshot (so the next start replays one compact
// file instead of the whole tail) and seals the WAL. Called after the
// drain completes, so every job is quiescent.
func (s *journalStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil && err != journal.ErrClosed {
		s.logf("journal: final snapshot: %v", err)
	}
	return s.j.Close()
}
