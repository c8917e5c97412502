package server

import (
	"encoding/json"
	"fmt"
	"time"

	protocol "dmw/internal/dmw"
	"dmw/internal/journal"
)

// recKindJob tags the one record dmwd journals: a full jobRecord,
// written at admission (state queued or rejected) and again at the
// terminal transition (with the result in it); an older build's
// snapshot holds the same records. The journal itself is
// payload-agnostic; replay skips any other kind (see replayEntries).
const recKindJob byte = 1

// jobRecord is the durable form of a Job. Timestamps are absolute so
// the TTL clock survives restarts: Expires is measured from completion,
// not from recovery (see the TTL contract in store.go). Transcripts
// ride the terminal record (Transcript is nil until completion and for
// unrecorded jobs), so a transcript the client was told exists survives
// kill -9 exactly like the result does; jobRecord is also the
// replication payload the owner pushes to its ring successors (see
// internal/replica), which is how a read finds the transcript after the
// owner dies for good.
type jobRecord struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	Bids  [][]int  `json:"bids"`
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`

	Result     *JobResult           `json:"result,omitempty"`
	Transcript *protocol.Transcript `json:"transcript,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Expires   time.Time `json:"expires,omitempty"`
}

// record snapshots the job into its durable form.
func (j *Job) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{
		ID:         j.ID,
		Spec:       j.Spec,
		Bids:       j.bids,
		State:      j.state,
		Error:      j.errMsg,
		Result:     j.result,
		Transcript: j.transcript,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
		Expires:    j.expires,
	}
}

// jobFromRecord rebuilds a Job from its durable form. Non-terminal
// records (queued or running at crash time) come back as queued — the
// server re-enqueues them; the protocol run is deterministic in the
// spec and seed, so a re-run yields a byte-identical result. Terminal
// records keep their original completion time and TTL deadline.
func jobFromRecord(r jobRecord) *Job {
	j := &Job{
		ID:        r.ID,
		Spec:      r.Spec,
		bids:      r.Bids,
		state:     StateQueued,
		submitted: r.Submitted,
		done:      make(chan struct{}),
	}
	if r.State.Terminal() {
		j.started = r.Started
		j.finish(&r)
	}
	return j
}

// encodeRecord is the one place a jobRecord is marshalled: the bytes it
// returns are the WAL entry and the replica payload.
func encodeRecord(r jobRecord) ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("server: encoding job record %s: %w", r.ID, err)
	}
	return data, nil
}

// replayEntries folds a recovery's entry stream into the final per-job
// records, preserving first-submission order: every entry is a full
// record, so the last one per ID wins — a terminal record over its
// admission, a re-admission over the rejection it replaces, any segment
// entry over a legacy snapshot's. Entries of any other kind or that do
// not decode come from outside this program (a tail written by an older
// build, a damaged payload behind a valid CRC): they are logged and
// counted in skipped, never fatal — the job they described re-runs from
// its admission record to the same result.
func replayEntries(entries []journal.Entry, logf func(string, ...any)) (ordered []*jobRecord, skipped int) {
	byID := make(map[string]*jobRecord)
	for _, e := range entries {
		if e.Kind != recKindJob {
			logf("recovery: skipping record of unknown kind %d", e.Kind)
			skipped++
			continue
		}
		r := new(jobRecord)
		if err := json.Unmarshal(e.Data, r); err != nil {
			logf("recovery: skipping undecodable job record: %v", err)
			skipped++
			continue
		}
		if prev, ok := byID[r.ID]; ok {
			*prev = *r
		} else {
			byID[r.ID] = r
			ordered = append(ordered, r)
		}
	}
	return ordered, skipped
}
