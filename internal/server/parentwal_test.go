package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmw/internal/journal"
	"dmw/internal/replica"
)

// transcriptBytes is GET /v1/jobs/{id}/transcript's body.
func transcriptBytes(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/transcript")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("transcript of %s: %d %v\n%s", id, resp.StatusCode, err, body)
	}
	return body
}

// TestParentFormatWALRecovers: a data dir written by the build before
// the record frame holds JSON job records (kind 1), admissions and
// terminal records with their transcripts. Reopened under this build,
// every job comes back with the View it had, GET /v1/jobs/{id}/transcript
// serves the bytes the job's owner served, and what is appended next is
// a frame. The same transcript bytes come from a replica copy, and from
// the WAL again once frames and JSON records share it, for the jobs of
// either format.
func TestParentFormatWALRecovers(t *testing.T) {
	ref, refTS := startHTTP(t, testConfig())
	var jobs []*Job
	for k := 0; k < 4; k++ {
		spec := JobSpec{ID: fmt.Sprintf("parent-%d", k), Random: &RandomSpec{Agents: 4 + k%2, Tasks: 1 + k%2},
			W: []int{1, 2, 3}, Seed: int64(k), Record: k != 3, RequestID: fmt.Sprintf("req-%d", k), Tenant: "t1"}
		job, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	var entries []journal.Entry
	for _, job := range jobs {
		if !job.WaitDone(30*time.Second) || job.State() != StateDone {
			t.Fatalf("reference job %s: %s", job.ID, job.State())
		}
		done := job.record()
		admitted := done
		admitted.State, admitted.Result, admitted.Transcript = StateQueued, nil, nil
		admitted.Started, admitted.Finished, admitted.Expires = time.Time{}, time.Time{}, time.Time{}
		for _, r := range []jobRecord{admitted, done} {
			data, err := json.Marshal(r) // the parent build's encodeRecord
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, journal.Entry{Kind: recKindJob, Data: data})
		}
	}
	dir := t.TempDir()
	jnl, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// reopen starts a journal-backed server on dir and checks that it
	// serves every reference job as the owner did.
	reopen := func(what string) (*Server, string) {
		var logs strings.Builder
		cfg := journalConfig(dir)
		cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		if !strings.Contains(logs.String(), "0 records skipped") {
			t.Errorf("%s: recovery skipped records:\n%s", what, logs.String())
		}
		for _, want := range jobs {
			got, ok := s.Get(want.ID)
			if !ok {
				t.Fatalf("%s: job %s lost", what, want.ID)
			}
			if !sameRestoredView(want.View(), got.View()) {
				t.Errorf("%s: job %s restored as\n%+v\nwant\n%+v", what, want.ID, got.View(), want.View())
			}
			if want.Transcript() != nil &&
				!bytes.Equal(transcriptBytes(t, ts.URL, want.ID), transcriptBytes(t, refTS.URL, want.ID)) {
				t.Errorf("%s: job %s serves a transcript other than its owner's", what, want.ID)
			}
		}
		return s, ts.URL
	}

	s, url := reopen("parent WAL")
	next, err := s.Submit(JobSpec{ID: "after-1", Random: &RandomSpec{Agents: 4, Tasks: 1}, W: []int{1, 2, 3}, Seed: 9, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if !next.WaitDone(30 * time.Second) {
		t.Fatal("the job submitted after recovery did not finish")
	}
	wal := readWAL(t, dir)
	if len(wal) <= len(entries) {
		t.Fatalf("the WAL holds %d entries, want more than the parent's %d", len(wal), len(entries))
	}
	for _, e := range wal[len(entries):] {
		if !bytes.HasPrefix(e.Data, []byte("DW")) {
			t.Fatalf("appended after recovery as %.40q, not as a frame", e.Data)
		}
	}
	served := transcriptBytes(t, url, next.ID)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s, url = reopen("mixed WAL")
	if got, ok := s.Get(next.ID); !ok || !sameRestoredView(next.View(), got.View()) {
		t.Errorf("the job written as frames did not come back as it was (found %v)", ok)
	}
	if !bytes.Equal(transcriptBytes(t, url, next.ID), served) {
		t.Errorf("the job written as frames serves another transcript after recovery")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A ring successor holding the owner's pushed copies.
	peer, peerTS := startHTTP(t, testConfig())
	for _, want := range jobs {
		payload, err := encodeRecord(want.record())
		if err != nil {
			t.Fatal(err)
		}
		if peer.AcceptReplica([]replica.Record{{ID: want.ID, Origin: "ref", Epoch: 1, Payload: payload}}) != 1 {
			t.Fatalf("replica copy of %s refused", want.ID)
		}
		if want.Transcript() != nil && !bytes.Equal(transcriptBytes(t, peerTS.URL, want.ID), transcriptBytes(t, refTS.URL, want.ID)) {
			t.Errorf("the replica copy of %s serves a transcript other than its owner's", want.ID)
		}
	}
}
