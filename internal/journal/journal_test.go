package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, mut func(*Options)) (*Journal, *Recovery) {
	t.Helper()
	opts := Options{Dir: dir, Sync: SyncNever, Logf: t.Logf}
	if mut != nil {
		mut(&opts)
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func entry(kind byte, s string) Entry { return Entry{Kind: kind, Data: []byte(s)} }

func wantEntries(t *testing.T, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("entry %d = (%d, %q), want (%d, %q)", i, got[i].Kind, got[i].Data, want[i].Kind, want[i].Data)
		}
	}
}

// TestAppendReplayRoundTrip pins the core WAL contract: everything
// appended before Close comes back from the next Open, in order.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := openT(t, dir, nil)
	if rec.Recovered {
		t.Fatal("fresh dir should not report a recovery")
	}
	want := []Entry{entry(1, "alpha"), entry(2, "beta"), entry(3, "")}
	for _, e := range want[:2] {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendBatch(want[2:]); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Appends != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v, want 3 appends and nonzero bytes", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(entry(9, "late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	j2, rec2 := openT(t, dir, nil)
	defer j2.Close()
	if !rec2.Recovered || rec2.TailTruncated {
		t.Fatalf("recovery = %+v, want recovered without truncation", rec2)
	}
	wantEntries(t, rec2.Entries, want)
}

// TestSegmentRotation forces rotation with a tiny segment cap and
// checks replay order spans segments.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	var want []Entry
	for i := 0; i < 40; i++ {
		e := entry(1, fmt.Sprintf("record-%03d", i))
		want = append(want, e)
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have happened", st.Segments)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	defer j2.Close()
	wantEntries(t, rec.Entries, want)
}

// segmented fills a fresh journal with tiny segments and returns it with
// the entries each segment holds, keyed by sequence number.
func segmented(t *testing.T, dir string) (*Journal, map[uint64][]Entry) {
	t.Helper()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	bySeg := make(map[uint64][]Entry)
	for i := 0; i < 30; i++ {
		e := entry(1, fmt.Sprintf("record-%03d", i))
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
		seg := j.Stats().Active
		bySeg[seg] = append(bySeg[seg], e)
	}
	if j.Stats().Active < 4 {
		t.Fatalf("only %d rotations; the test needs at least 4", j.Stats().Active)
	}
	return j, bySeg
}

// segsOnDisk lists the segment sequence numbers present in dir.
func segsOnDisk(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, _, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func seqRange(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// TestRetire pins the retirement contract: Retire refuses the active
// segment, deletes exactly the prefix through the segment it is given,
// fsyncs the active segment before it unlinks anything, and unlinks in
// ascending order, stopping at the first failure, so no gap is ever
// left; the next Open replays exactly the segments kept.
func TestRetire(t *testing.T) {
	t.Run("prefix", func(t *testing.T) {
		dir := t.TempDir()
		j, bySeg := segmented(t, dir)
		active := j.Stats().Active
		if err := j.Retire(active); err == nil {
			t.Fatal("Retire accepted the active segment")
		}
		if got := segsOnDisk(t, dir); !reflect.DeepEqual(got, seqRange(0, active)) {
			t.Fatalf("a refused Retire left segments %v", got)
		}
		if err := j.Retire(1); err != nil {
			t.Fatal(err)
		}
		if got := segsOnDisk(t, dir); !reflect.DeepEqual(got, seqRange(2, active)) || j.Stats().Segments != len(got) {
			t.Fatalf("after Retire(1): segments %v (stats %d), want %v", got, j.Stats().Segments, seqRange(2, active))
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, rec := openT(t, dir, nil)
		defer j2.Close()
		var want []Entry
		for _, s := range seqRange(2, active) {
			want = append(want, bySeg[s]...)
		}
		wantEntries(t, rec.Entries, want)
	})

	t.Run("syncs-active-first", func(t *testing.T) {
		dir := t.TempDir()
		j, _ := segmented(t, dir)
		active := j.Stats().Active
		_ = j.f.Close() // the active segment's fsync now fails
		if err := j.Retire(active - 1); err == nil {
			t.Fatal("Retire succeeded although the active segment could not be synced")
		}
		if got := segsOnDisk(t, dir); !reflect.DeepEqual(got, seqRange(0, active)) {
			t.Fatalf("Retire unlinked before syncing the active segment: segments %v", got)
		}
		_ = j.Close()
	})

	t.Run("stops-at-first-failed-unlink", func(t *testing.T) {
		dir := t.TempDir()
		j, _ := segmented(t, dir)
		defer j.Close()
		active := j.Stats().Active
		// A non-empty directory under segment 2's name cannot be unlinked.
		stuck := filepath.Join(dir, segmentName(2))
		if err := os.Remove(stuck); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(stuck, "pin"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := j.Retire(active - 1); err == nil {
			t.Fatal("Retire reported success past an unlink that failed")
		}
		if got := segsOnDisk(t, dir); !reflect.DeepEqual(got, seqRange(2, active)) {
			t.Fatalf("segments after a failed unlink: %v, want the gap-free suffix %v", got, seqRange(2, active))
		}
	})
}

// TestAppendAfterFailedWrite: a write cut short by the file-size limit
// (EFBIG; the Go runtime ignores SIGXFSZ, so the write genuinely returns
// short) must not leave its torn bytes in front of the next append —
// recovery cuts the log at the first torn frame and would drop that
// later, acknowledged record with it.
func TestAppendAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.Sync = SyncAlways })
	before, after := entry(1, "acknowledged-before"), entry(1, "acknowledged-after")
	if err := j.Append(before); err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("RLIMIT_FSIZE unavailable: %v", err)
	}
	small := lim
	small.Cur = j.Stats().Bytes + 5 // room for part of the next frame's header only
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &small); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	err := j.Append(entry(1, "cut-short-by-the-limit"))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("an append across the file-size limit succeeded")
	}
	if err := j.Append(after); err != nil {
		t.Fatalf("append after a failed write: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	if rec.TailTruncated {
		t.Error("recovery found a torn frame: the failed write's bytes were left in the segment")
	}
	wantEntries(t, rec.Entries, []Entry{before, after})
}

// TestTornTailTruncateAndContinue simulates a crash mid-append: the
// final record is cut short; recovery must drop exactly that record,
// truncate the file, and keep accepting appends.
func TestTornTailTruncateAndContinue(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	good := []Entry{entry(1, "keep-1"), entry(1, "keep-2")}
	for _, e := range good {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(entry(1, "torn-away")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segmentName(0))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-4); err != nil { // cut mid-frame
		t.Fatal(err)
	}

	j2, rec := openT(t, dir, nil)
	if !rec.TailTruncated {
		t.Fatal("recovery should report a truncated tail")
	}
	wantEntries(t, rec.Entries, good)

	// The journal must keep working after truncation.
	if err := j2.Append(entry(2, "after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, rec3 := openT(t, dir, nil)
	defer j3.Close()
	wantEntries(t, rec3.Entries, append(append([]Entry{}, good...), entry(2, "after-crash")))
}

// TestBitFlippedTailRecord flips a byte inside the last record: the CRC
// must reject it and recovery drops it with a warning.
func TestBitFlippedTailRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	if err := j.Append(entry(1, "keep")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(entry(1, "flip-me")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	if !rec.TailTruncated {
		t.Fatal("bit-flipped tail should be treated as torn")
	}
	wantEntries(t, rec.Entries, []Entry{entry(1, "keep")})
}

// TestMidLogCorruptionFailsLoudly: corruption that is NOT at the log
// tail (here: in a sealed segment) must fail recovery with a pointer to
// the runbook, never silently drop acknowledged records.
func TestMidLogCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 32 })
	for i := 0; i < 10; i++ {
		if err := j.Append(entry(1, fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if j.Stats().Segments < 2 {
		t.Fatal("test needs at least 2 segments")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(0)) // sealed, not the tail
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0xFF // corrupt the first frame's length field
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Sync: SyncNever}); err == nil {
		t.Fatal("mid-log corruption must fail recovery")
	}
}

// TestSyncPolicies exercises each policy end to end (durability itself
// cannot be asserted in-process; this pins the plumbing and counters).
func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir, func(o *Options) {
				o.Sync = pol
				o.SyncInterval = time.Millisecond
			})
			for i := 0; i < 5; i++ {
				if err := j.Append(entry(1, "x")); err != nil {
					t.Fatal(err)
				}
			}
			if pol == SyncAlways && j.Stats().Fsyncs < 5 {
				t.Fatalf("fsyncs = %d, want >= 5 under always", j.Stats().Fsyncs)
			}
			if pol == SyncInterval {
				deadline := time.Now().Add(5 * time.Second)
				for j.Stats().Fsyncs == 0 {
					if time.Now().After(deadline) {
						t.Fatal("interval flusher never fsynced")
					}
					time.Sleep(time.Millisecond)
				}
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, rec := openT(t, dir, nil)
			defer j2.Close()
			if len(rec.Entries) != 5 {
				t.Fatalf("replayed %d entries, want 5", len(rec.Entries))
			}
		})
	}
}

// TestParseSyncPolicy pins the flag spellings.
func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "never": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy should reject unknown spellings")
	}
}

// TestSnapshotCrashLeavesTmp: a data dir an older build crashed in
// mid-snapshot holds a leftover snap.tmp; it must be ignored and
// removed, and the log still replays in full.
func TestSnapshotCrashLeavesTmp(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, nil)
	want := []Entry{entry(1, "a"), entry(1, "b")}
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A half-written snapshot that never got renamed into place.
	if err := os.WriteFile(filepath.Join(dir, "snap.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := openT(t, dir, nil)
	defer j2.Close()
	wantEntries(t, rec.Entries, want)
	if _, err := os.Stat(filepath.Join(dir, "snap.tmp")); !os.IsNotExist(err) {
		t.Error("leftover snap.tmp should have been removed")
	}
}
