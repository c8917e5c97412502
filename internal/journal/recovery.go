package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// scanDir lists segment and snapshot sequence numbers (each sorted
// ascending) plus any leftover temp files in dir.
func scanDir(dir string) (segs, snaps []uint64, tmps []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal: reading dir: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if s, ok := parseSeq(name, "wal-", ".seg"); ok {
				segs = append(segs, s)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if s, ok := parseSeq(name, "snap-", ".snap"); ok {
				snaps = append(snaps, s)
			}
		case strings.HasSuffix(name, ".tmp"):
			tmps = append(tmps, name)
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	return segs, snaps, tmps, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	s, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
	return s, err == nil
}

// recover replays WAL state from j.dir and positions the journal for
// appending. Policy:
//
//   - The newest snapshot an older build left (it compacted into
//     snap-N.snap) is loaded fully; any decode error there is fatal —
//     see docs/DURABILITY.md for the operator runbook.
//   - Segments with seq >= snapshot seq are replayed in order. A torn
//     or corrupt record at the very tail of the LAST segment is a crash
//     artifact: it is logged, the file is truncated at the last good
//     frame, and recovery continues. The same failure anywhere else is
//     real corruption and fails recovery.
//   - Leftover *.tmp files (an older build's interrupted snapshot) are
//     deleted.
func (j *Journal) recover() (*Recovery, error) {
	segs, snaps, tmps, err := scanDir(j.dir)
	if err != nil {
		return nil, err
	}
	for _, t := range tmps {
		j.opts.Logf("journal: removing leftover temp file %s", t)
		_ = os.Remove(filepath.Join(j.dir, t))
	}

	rec := &Recovery{}

	// Load the newest legacy snapshot, if any.
	var startSeq uint64
	if len(snaps) > 0 {
		snapSeq := snaps[len(snaps)-1]
		path := filepath.Join(j.dir, snapshotName(snapSeq))
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: reading snapshot %s: %w", path, err)
		}
		entries, err := decodeAll(raw)
		if err != nil {
			return nil, fmt.Errorf("journal: snapshot %s is corrupt (%v); see docs/DURABILITY.md for the recovery runbook", path, err)
		}
		rec.Entries = append(rec.Entries, entries...)
		rec.Recovered = true
		startSeq = snapSeq
		j.opts.Logf("journal: loaded snapshot seq=%d (%d entries)", snapSeq, len(entries))
	}

	// Replay segments >= startSeq, checking for gaps.
	var replay []uint64
	for _, s := range segs {
		if s >= startSeq {
			replay = append(replay, s)
		}
	}
	for i, s := range replay {
		if i > 0 && s != replay[i-1]+1 {
			return nil, fmt.Errorf("journal: segment gap: %d follows %d", s, replay[i-1])
		}
		entries, truncated, err := j.replaySegment(s, i == len(replay)-1)
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			rec.Recovered = true
			rec.Entries = append(rec.Entries, entries...)
		}
		if truncated {
			rec.TailTruncated = true
		}
	}

	// Position for appending: continue the last segment, or create the
	// first one of this incarnation.
	next := startSeq
	if len(replay) > 0 {
		next = replay[len(replay)-1]
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return rec, nil
}

// replaySegment reads one segment's frames. When isLast and the stream
// ends in a torn/corrupt record, the file is truncated at the last good
// frame and the good prefix is returned with truncated=true; otherwise
// any decode error is fatal.
func (j *Journal) replaySegment(seq uint64, isLast bool) (entries []Entry, truncated bool, err error) {
	path := filepath.Join(j.dir, segmentName(seq))
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("journal: reading segment %s: %w", path, err)
	}
	off := 0
	for off < len(raw) {
		e, n, derr := DecodeFrame(raw[off:])
		if derr != nil {
			if !isLast {
				return nil, false, fmt.Errorf("journal: segment %s is corrupt at offset %d (%v) and is not the log tail; see docs/DURABILITY.md for the recovery runbook", path, off, derr)
			}
			j.opts.Logf("journal: WARNING: torn/corrupt record at tail of %s offset %d (%v); truncating %d bytes and continuing",
				path, off, derr, len(raw)-off)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return nil, false, fmt.Errorf("journal: truncating torn tail of %s: %w", path, terr)
			}
			return entries, true, nil
		}
		e.Data = append([]byte(nil), e.Data...)
		entries = append(entries, e)
		off += n
	}
	return entries, false, nil
}
