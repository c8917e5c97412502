package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func sampleJobs() []Job {
	return []Job{
		{
			ID:          "job-1",
			Bids:        [][]int{{1, 2, 3}, {4, 3, 2}},
			W:           []int{1, 2, 3, 4},
			C:           1,
			Seed:        42,
			Parallelism: 2,
			Record:      true,
			Trace:       true,
			LinkDelayMS: 10.5,
			RequestID:   "req-abc",
			Tenant:      "acme",
		},
		{
			ID:           "job-2",
			Random:       true,
			RandomAgents: 8,
			RandomTasks:  3,
			Seed:         -7,
			CountOps:     true,
		},
		{}, // zero spec must round-trip too (validation is the server's job)
		{
			ID:   "ragged",
			Bids: [][]int{{1}, {}, {2, 3}},
			W:    []int{-1, 1 << 30}, // ints wider than 16 bits survive the frame
		},
	}
}

func TestJobFrameRoundTrip(t *testing.T) {
	jobs := sampleJobs()
	b, err := EncodeJobFrame(jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJobFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", jobs, got)
	}
	// Each job must also round-trip ALONE — a single submit is a one-job
	// frame, and the smallest of them (a spec with neither bids nor a
	// random shape) sits exactly on the decoder's per-item size floor.
	for i := range jobs {
		one, err := EncodeJobFrame(jobs[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeJobFrame(one); err != nil || !reflect.DeepEqual(jobs[i:i+1], got) {
			t.Fatalf("job %d alone: decoded %+v, err %v", i, got, err)
		}
	}
	// Decoded jobs must not alias the frame: scribbling over the buffer
	// may not change them.
	mut := append([]byte(nil), b...)
	got2, err := DecodeJobFrame(mut)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mut {
		mut[i] = 0xFF
	}
	if !reflect.DeepEqual(jobs, got2) {
		t.Fatal("decoded jobs alias the input buffer")
	}
}

func TestJobFrameEmpty(t *testing.T) {
	b, err := EncodeJobFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJobFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d jobs from empty frame", len(got))
	}
}

func TestResultFrameRoundTrip(t *testing.T) {
	items := []ResultItem{
		{Status: 202, Body: []byte(`{"id":"a","state":"queued"}`)},
		{Status: 429, RetryAfterSec: 3, ErrMsg: "server: tenant rate limited"},
		{Status: 503, RetryAfterSec: 1, ErrMsg: "server: queue full", Body: []byte(`{"id":"b","state":"rejected"}`)},
		{Status: 400, ErrMsg: "server: invalid job spec"},
	}
	b := AppendResultFrame(nil, items)
	got, err := DecodeResultFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Status != items[i].Status || got[i].RetryAfterSec != items[i].RetryAfterSec ||
			got[i].ErrMsg != items[i].ErrMsg {
			t.Fatalf("item %d: got %+v want %+v", i, got[i], items[i])
		}
		if !bytes.Equal(got[i].Body, items[i].Body) {
			t.Fatalf("item %d body: got %q want %q", i, got[i].Body, items[i].Body)
		}
	}
	// Bodies deliberately alias the input (zero-copy relay): mutating the
	// frame buffer must show through the decoded body.
	idx := bytes.Index(b, []byte(`"queued"`))
	b[idx+1] = 'Q'
	if !bytes.Contains(got[0].Body, []byte("Queued")) {
		t.Fatal("result bodies do not alias the frame buffer")
	}
}

func TestRecordFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "job-1", Origin: "replica-a", Epoch: 9, Payload: []byte(`{"id":"job-1"}`)},
		{ID: "job-2", Payload: nil},
	}
	b, err := AppendRecordFrame(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecordFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || got[i].Origin != recs[i].Origin || got[i].Epoch != recs[i].Epoch {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
		if !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

// TestFrameTruncation pins the loud-failure contract: every prefix of a
// valid frame decodes to an error (never a panic, never a silent
// partial parse), and corrupting the header is diagnosed as a frame
// error rather than handed to a JSON decoder.
func TestFrameTruncation(t *testing.T) {
	jb, err := EncodeJobFrame(sampleJobs())
	if err != nil {
		t.Fatal(err)
	}
	rb := AppendResultFrame(nil, []ResultItem{{Status: 202, Body: []byte("{}")}})
	cb, err := AppendRecordFrame(nil, []Record{{ID: "x", Payload: []byte("{}")}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(jb); cut++ {
		if _, err := DecodeJobFrame(jb[:cut]); err == nil {
			t.Fatalf("job frame truncated at %d decoded cleanly", cut)
		}
	}
	for cut := 0; cut < len(rb); cut++ {
		if _, err := DecodeResultFrame(rb[:cut]); err == nil {
			t.Fatalf("result frame truncated at %d decoded cleanly", cut)
		}
	}
	for cut := 0; cut < len(cb); cut++ {
		if _, err := DecodeRecordFrame(cb[:cut]); err == nil {
			t.Fatalf("record frame truncated at %d decoded cleanly", cut)
		}
	}

	bad := append([]byte(nil), jb...)
	bad[0] = 'X'
	if _, err := DecodeJobFrame(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad magic: got %v, want ErrFrame", err)
	}
	bad = append(bad[:0], jb...)
	bad[2] = 99 // version
	if _, err := DecodeJobFrame(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("bad version: got %v, want ErrFrame", err)
	}
	// A version-1 job frame is refused by its version byte: read in
	// the current layout, its maxPrice bytes would become w's count.
	if _, err := DecodeJobFrame(versionOneJobFrame()); !errors.Is(err, ErrFrame) {
		t.Fatalf("version-1 job frame: got %v, want ErrFrame", err)
	}
	bad = append(bad[:0], jb...)
	bad[3] = frameRecords // cross-typed frame
	if _, err := DecodeJobFrame(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("cross-typed frame: got %v, want ErrFrame", err)
	}
	// Trailing garbage after a complete frame is an error, not ignored.
	if _, err := DecodeJobFrame(append(append([]byte(nil), jb...), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
}

// versionOneJobFrame is one random-shape job in the version-1 layout,
// which carried maxPrice:f64 between linkDelayMS and w.
func versionOneJobFrame() []byte {
	a := appender{b: []byte{'D', 'W', 1, frameJobs, 0, 0, 0, 1}}
	a.str("v1-job")
	a.str("") // request ID
	a.str("") // tenant
	a.u8(jfRandom)
	a.i64(1)   // c
	a.i64(7)   // seed
	a.i64(0)   // parallelism
	a.f64(0)   // linkDelayMS
	a.f64(0.5) // maxPrice
	a.u16(4)
	for v := int64(1); v <= 4; v++ {
		a.i64(v)
	}
	a.u32(6) // agents
	a.u32(3) // tasks
	return a.b
}

func TestJobFrameEncodeLimits(t *testing.T) {
	if _, err := EncodeJobFrame([]Job{{Tenant: strings.Repeat("x", 1<<16)}}); err == nil {
		t.Fatal("oversized string field encoded")
	}
	// Oversized ErrMsg truncates instead of failing: the outcome is
	// already committed server-side.
	b := AppendResultFrame(nil, []ResultItem{{Status: 400, ErrMsg: strings.Repeat("e", 1<<17)}})
	items, err := DecodeResultFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(items[0].ErrMsg) != 1<<16-1 {
		t.Fatalf("ErrMsg truncated to %d bytes, want %d", len(items[0].ErrMsg), 1<<16-1)
	}
}

// FuzzJobFrameRoundTrip feeds arbitrary bytes to the job-frame
// decoder: it must never panic, and any input it accepts must
// re-encode and decode to the same jobs (decode-encode-decode
// fixpoint). Wired into `make fuzz-smoke`.
func FuzzJobFrameRoundTrip(f *testing.F) {
	seed, err := EncodeJobFrame(sampleJobs())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, _ := EncodeJobFrame(nil)
	f.Add(empty)
	mut := append([]byte(nil), seed...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{'D', 'W', frameVersion, frameJobs, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := DecodeJobFrame(data)
		if err != nil {
			return // rejected input: fine, as long as no panic
		}
		re, err := EncodeJobFrame(jobs)
		if err != nil {
			t.Fatalf("decoded frame cannot be re-encoded: %v", err)
		}
		again, err := DecodeJobFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// Compare at the byte level: encoding is deterministic, so a true
		// fixpoint re-encodes identically. (DeepEqual would reject specs
		// carrying NaN floats, which round-trip bit-exactly but never
		// compare equal to themselves.)
		re2, err := EncodeJobFrame(again)
		if err != nil {
			t.Fatalf("second decode cannot be re-encoded: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("fixpoint violated:\n first  %+v\n second %+v", jobs, again)
		}
	})
}
