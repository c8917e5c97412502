package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecordRoundTrip feeds arbitrary bytes to the frame decoder: it
// must never panic, and whenever it accepts a frame, re-encoding the
// entry must reproduce exactly the consumed bytes (encode/decode are
// mutually inverse on valid frames). Registered next to the
// internal/wire fuzzers; `make fuzz-smoke` runs it briefly and without
// -fuzz the corpus below doubles as a regression test.
func FuzzRecordRoundTrip(f *testing.F) {
	// Seed corpus: valid frames plus truncated and bit-flipped variants
	// (the torn-write signatures recovery must classify, never crash on).
	seeds := []Entry{
		{Kind: 0, Data: nil},
		{Kind: 1, Data: []byte("job-record")},
		{Kind: 3, Data: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: 255, Data: []byte{0}},
	}
	for _, e := range seeds {
		frame := EncodeFrame(e)
		f.Add(frame)
		for _, cut := range []int{1, 4, len(frame) / 2, len(frame) - 1} {
			if cut > 0 && cut < len(frame) {
				f.Add(frame[:cut]) // truncated (torn write)
			}
		}
		for _, pos := range []int{0, 4, 8, len(frame) - 1} {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 0x40 // bit flip (media corruption)
			f.Add(mut)
		}
		// Two frames back to back: decoder must consume exactly one.
		f.Add(append(append([]byte(nil), frame...), frame...))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := DecodeFrame(data)
		if err != nil {
			// Rejected input must be classified by a framing sentinel.
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadCRC) &&
				!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrEmptyFrame) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n < frameHeaderLen+1 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		re := EncodeFrame(e)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n  in  %x\n  out %x", data[:n], re)
		}
		// Decoding the re-encoding must yield the same entry (fixpoint).
		e2, n2, err := DecodeFrame(re)
		if err != nil || n2 != n || e2.Kind != e.Kind || !bytes.Equal(e2.Data, e.Data) {
			t.Fatalf("fixpoint violated: %v (%d, %q) vs (%d, %q)", err, e.Kind, e.Data, e2.Kind, e2.Data)
		}
	})
}

// FuzzRecover feeds arbitrary bytes to recovery as a segment file — the
// data dir is input from outside the program. Placed as the last
// segment, and separately as a sealed one, the bytes must make Open
// either replay a prefix of the frames they decode to or fail with an
// error; never panic or hang. A sealed segment is never cut short
// silently: Open may only succeed on one that decodes completely.
func FuzzRecover(f *testing.F) {
	var valid []byte
	for _, e := range []Entry{{Kind: 1, Data: []byte("job-record")}, {Kind: 2, Data: nil}, {Kind: 1, Data: bytes.Repeat([]byte{0xAB}, 300)}} {
		valid = AppendFrame(valid, e)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])               // torn tail
	f.Add(append(valid[:9:9], valid[10:]...)) // a byte gone mid-log
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frames data decodes to, up to the first bad one.
		var want []Entry
		clean := true
		for off := 0; off < len(data); {
			e, n, err := DecodeFrame(data[off:])
			if err != nil {
				clean = false
				break
			}
			want = append(want, e)
			off += n
		}
		for _, sealed := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if sealed {
				if err := os.WriteFile(filepath.Join(dir, segmentName(1)), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, rec, err := Open(Options{Dir: dir, Sync: SyncNever})
			if err != nil {
				continue
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got := rec.Entries
			if len(got) > len(want) || (sealed && (!clean || len(got) != len(want))) {
				t.Fatalf("sealed=%v: replayed %d entries of %d decodable (input decodes cleanly: %v)", sealed, len(got), len(want), clean)
			}
			for i := range got {
				if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("sealed=%v: entry %d = (%d, %q), want (%d, %q)", sealed, i, got[i].Kind, got[i].Data, want[i].Kind, want[i].Data)
				}
			}
		}
	})
}
