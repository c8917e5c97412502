package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy controls when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) batches fsyncs on a timer: appends are
	// durable within Options.SyncInterval of returning. One disk flush
	// amortizes across every append in the window.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before every Append/AppendBatch returns: an
	// acknowledged record is durable even across power loss. This is the
	// slowest policy; AppendBatch amortizes it across a whole batch.
	SyncAlways
	// SyncNever leaves flushing to the OS page cache. Survives process
	// crashes (the kernel still has the pages) but not power loss.
	SyncNever
)

// ParseSyncPolicy maps the flag spellings "always", "interval", and
// "never" to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or never)", s)
}

// String returns the flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// Options configures Open. Only Dir is required.
type Options struct {
	// Dir is the data directory; created (0o755) if missing.
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 100ms).
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). A segment is the unit Retire reclaims, so this is
	// also the granularity of disk reclamation.
	SegmentBytes int64
	// Logf receives recovery warnings and lifecycle logs; nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Sync == SyncInterval && o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Stats is a point-in-time snapshot of journal counters.
type Stats struct {
	// Appends counts entries appended (batch entries count individually).
	Appends uint64
	// Fsyncs counts file flushes issued (appends, rotations, retirements).
	Fsyncs uint64
	// Bytes counts frame bytes written to segments since Open.
	Bytes uint64
	// Segments is the current number of live WAL segment files.
	Segments int
	// Active is the sequence number of the active segment: the one the
	// last append landed in, and the one the next append goes to unless
	// it rotates first.
	Active uint64
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Journal is an append-only segmented WAL. All methods are safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	opts Options
	dir  string
	lock *dirLock // exclusive flock on dir; held Open..Close

	mu     sync.Mutex
	f      *os.File // active segment
	seq    uint64   // active segment sequence number
	size   int64    // bytes in the active segment
	closed bool
	dirty  bool // unsynced appends (interval policy)
	// failed is set when a failed write left torn bytes that could not be
	// truncated away: every later append is refused until reopen, whose
	// recovery cuts the torn tail.
	failed error

	stats Stats

	stopFlush chan struct{}
	flushWG   sync.WaitGroup
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Entries is the full replay: a legacy snapshot's entries (if one is
	// left) followed by every segment's entries in append order.
	Entries []Entry
	// Recovered is true when any prior state (legacy snapshot or
	// non-empty segment) existed, i.e. this Open performed a recovery.
	Recovered bool
	// TailTruncated is true when the final record of the last segment
	// was torn or corrupt and recovery dropped it (logged as a warning).
	TailTruncated bool
}

// Open opens (or initializes) the journal in opts.Dir and replays any
// existing state. The returned Recovery carries the replayed entries;
// the journal is positioned to append after the last good record.
func Open(opts Options) (*Journal, *Recovery, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, errors.New("journal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	// Two processes appending to one WAL interleave frames and corrupt
	// each other's tail; refuse to share the dir at all. The flock dies
	// with the process, so crash recovery never needs a manual unlock.
	lock, err := acquireDirLock(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{opts: opts, dir: opts.Dir, lock: lock, stopFlush: make(chan struct{})}
	rec, err := j.recover()
	if err != nil {
		_ = lock.release()
		return nil, nil, err
	}
	if opts.Sync == SyncInterval {
		j.flushWG.Add(1)
		go j.flushLoop()
	}
	return j, rec, nil
}

// segmentName / snapshotName are the on-disk file names for sequence s.
// Snapshots are only read (and retired): older builds wrote them at
// compaction, and a data dir they shut down cleanly holds one.
func segmentName(s uint64) string  { return fmt.Sprintf("wal-%016d.seg", s) }
func snapshotName(s uint64) string { return fmt.Sprintf("snap-%016d.snap", s) }

// Append journals one entry, honoring the sync policy before returning.
func (j *Journal) Append(e Entry) error {
	return j.AppendBatch([]Entry{e})
}

// AppendBatch journals entries atomically with respect to recovery
// ordering (they land contiguously in one segment) and with a single
// fsync under SyncAlways — the batch amortization used by the dmwd
// batch submission endpoint.
func (j *Journal) AppendBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	var buf []byte
	for _, e := range entries {
		if 1+len(e.Data) > MaxFrameBytes {
			return fmt.Errorf("journal: entry of %d bytes exceeds frame limit", len(e.Data))
		}
		buf = AppendFrame(buf, e)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.failed != nil {
		return j.failed
	}
	if j.size >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(buf); err != nil {
		// A short write (ENOSPC, EIO, EFBIG) leaves a torn frame, and the
		// segment is O_APPEND: the next append would land behind it, where
		// recovery — which cuts the log at the first torn frame — drops it,
		// or refuses to start once a rotation has sealed the torn frame
		// into a non-tail segment. Cut the torn bytes off now.
		if terr := j.f.Truncate(j.size); terr != nil {
			j.failed = fmt.Errorf("journal: %s holds a torn frame that could not be truncated (%v); appends refused until reopen", j.f.Name(), terr)
		}
		return fmt.Errorf("journal: appending to %s: %w", j.f.Name(), err)
	}
	j.size += int64(len(buf))
	j.stats.Bytes += uint64(len(buf))
	j.stats.Appends += uint64(len(entries))
	switch j.opts.Sync {
	case SyncAlways:
		if err := j.syncLocked(); err != nil {
			return err
		}
	case SyncInterval:
		j.dirty = true
	}
	return nil
}

// Sync forces an fsync of the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", j.f.Name(), err)
	}
	j.stats.Fsyncs++
	j.dirty = false
	return nil
}

// rotateLocked seals the active segment and starts seq+1.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	return j.openSegmentLocked(j.seq + 1)
}

// openSegmentLocked opens (creating if needed) segment seq for append
// and makes it the active one.
func (j *Journal) openSegmentLocked(seq uint64) error {
	path := filepath.Join(j.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: stat segment: %w", err)
	}
	j.f, j.seq, j.size = f, seq, st.Size()
	j.stats.Segments, j.stats.Active = j.countSegmentsLocked(), seq
	return j.syncDir()
}

// countSegmentsLocked counts wal-*.seg files currently on disk.
func (j *Journal) countSegmentsLocked() int {
	names, err := filepath.Glob(filepath.Join(j.dir, "wal-*.seg"))
	if err != nil {
		return 0
	}
	return len(names)
}

// syncDir fsyncs the data directory so file creations/renames/removals
// are themselves durable (POSIX requires a directory fsync for that).
func (j *Journal) syncDir() error {
	d, err := os.Open(j.dir)
	if err != nil {
		return fmt.Errorf("journal: opening dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: fsync dir: %w", err)
	}
	j.stats.Fsyncs++
	return nil
}

// Retire deletes every sealed segment with sequence <= through, and any
// legacy snapshot at or below it. The caller vouches that none of them
// holds a record recovery still needs; the journal never retires on its
// own.
//
// The active segment is fsynced first: the records that supersede the
// retired ones must be durable before their predecessors go. Files are
// then unlinked in replay order (snapshot N replays before segment N),
// so a crash after any prefix of unlinks leaves a gap-free suffix that
// replays to the same live state. The first failed unlink stops the
// walk; a later Retire deletes what it left.
func (j *Journal) Retire(through uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if through >= j.seq {
		return fmt.Errorf("journal: cannot retire through segment %d: segment %d is active", through, j.seq)
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	segs, snaps, _, err := scanDir(j.dir)
	if err != nil {
		return err
	}
	var doomed []string
	for _, s := range segs { // ends at the active segment, > through
		for len(snaps) > 0 && snaps[0] <= s && snaps[0] <= through {
			doomed = append(doomed, snapshotName(snaps[0]))
			snaps = snaps[1:]
		}
		if s > through {
			break
		}
		doomed = append(doomed, segmentName(s))
	}
	for _, name := range doomed {
		if err = os.Remove(filepath.Join(j.dir, name)); err != nil {
			err = fmt.Errorf("journal: retiring %s: %w", name, err)
			break
		}
	}
	j.stats.Segments = j.countSegmentsLocked()
	if derr := j.syncDir(); err == nil {
		err = derr
	}
	if err == nil {
		j.opts.Logf("journal: retired %d file(s) through segment %d", len(doomed), through)
	}
	return err
}

// Stats returns current counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close flushes and closes the journal. Further operations return
// ErrClosed. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if err == nil {
		j.stats.Fsyncs++
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.mu.Unlock()

	close(j.stopFlush)
	j.flushWG.Wait()
	if lerr := j.lock.release(); err == nil {
		err = lerr
	}
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// flushLoop services the SyncInterval policy.
func (j *Journal) flushLoop() {
	defer j.flushWG.Done()
	t := time.NewTicker(j.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.mu.Lock()
			if !j.closed && j.dirty {
				if err := j.syncLocked(); err != nil {
					j.opts.Logf("journal: interval flush: %v", err)
				}
			}
			j.mu.Unlock()
		case <-j.stopFlush:
			return
		}
	}
}
