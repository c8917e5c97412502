package journal

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// BenchmarkJournalAppend measures the per-record durability tax of each
// fsync policy with a ~600 B payload (the size of a typical dmwd job
// record). `always` is the price of power-loss durability per append;
// `interval` shows what the 100 ms flush window amortizes it down to;
// `never` is the framing + page-cache floor. (The gated figure is the
// harness's journal.append_us; this is the per-policy breakdown.)
func BenchmarkJournalAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 600)
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		b.Run(fmt.Sprintf("fsync=%s", pol), func(b *testing.B) {
			j, _, err := Open(Options{
				Dir:          b.TempDir(),
				Sync:         pol,
				SyncInterval: 100 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			e := Entry{Kind: 1, Data: payload}
			b.SetBytes(int64(frameHeaderLen + 1 + len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(e); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(j.Stats().Fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}

// BenchmarkJournalAppendBatch shows the fsync amortization the batch
// submission endpoint relies on: one flush per 16-record batch.
func BenchmarkJournalAppendBatch(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 600)
	batch := make([]Entry, 16)
	for i := range batch {
		batch[i] = Entry{Kind: 1, Data: payload}
	}
	j, _, err := Open(Options{Dir: b.TempDir(), Sync: SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(batch)*b.N)/b.Elapsed().Seconds(), "records/sec")
}
