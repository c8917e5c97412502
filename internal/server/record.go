package server

import (
	"encoding/json"
	"fmt"
	"time"

	protocol "dmw/internal/dmw"
	"dmw/internal/journal"
	"dmw/internal/tenant"
)

// recKindJob tags the one record dmwd journals: a full jobRecord,
// written at admission (state queued or rejected) and again at the
// terminal transition (with the result in it); an older build's
// snapshot holds the same records. The journal itself is
// payload-agnostic; replay skips any other kind (see replayEntries).
const recKindJob byte = 1

// jobRecord is the durable form of a Job: the WAL entry and the replica
// payload. Timestamps are absolute so the TTL clock survives restarts:
// Expires is measured from completion, not from recovery (see the TTL
// contract in store.go). Transcripts ride the terminal record, so a
// transcript the client was told exists survives kill -9, and the
// owner's death, exactly like the result does.
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
	return jobRecord{ID: j.ID, Spec: j.Spec, Bids: j.bids, Submitted: j.submitted,
		State: j.state, Error: j.errMsg, Result: j.result, Transcript: j.transcript,
		Started: j.started, Finished: j.finished, Expires: j.expires}
}

// jobFromRecord is record's inverse: the Job a record describes. It is
// how admission creates a job (from its admission record) and how
// recovery and replica reads rebuild one.
func jobFromRecord(r jobRecord) *Job {
	j := &Job{ID: r.ID, Spec: r.Spec, bids: r.Bids, submitted: r.Submitted, done: make(chan struct{})}
	j.apply(&r)
	return j
}

// apply makes r the job's durable state. It is the only writer of the
// job's mutable durable fields; the ones fixed at admission (ID, Spec,
// bids, submitted) are read without the lock, so it never touches them.
// The first terminal record closes done and wakes every waiter, and a
// terminal job never changes again.
func (j *Job) apply(r *jobRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.errMsg, j.result, j.transcript = r.State, r.Error, r.Result, r.Transcript
	j.started, j.finished, j.expires = r.Started, r.Finished, r.Expires
	if r.State.Terminal() {
		close(j.done)
	}
}

// end turns r into its terminal record in state: errMsg is empty for a
// done job; res and tr are nil for anything else. The TTL clock starts
// here, at completion.
func (r *jobRecord) end(state JobState, res *JobResult, tr *protocol.Transcript, errMsg string, now time.Time, ttl time.Duration) {
	r.State, r.Result, r.Transcript, r.Error = state, res, tr, errMsg
	r.Finished, r.Expires = now, now.Add(ttl)
}

// servable reports whether r is acknowledged work another node may
// serve at now: done with its result, or failed, and inside a TTL it
// actually carries. A rejected record is a transient backpressure
// marker, and a record without Expires would never be evicted.
func (r *jobRecord) servable(now time.Time) bool {
	if r.State != StateFailed && (r.State != StateDone || r.Result == nil) {
		return false
	}
	return !r.Expires.IsZero() && !now.After(r.Expires)
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

// decodeRecord is encodeRecord's inverse and the one place a jobRecord
// is unmarshalled. WAL entries and replica payloads are both input from
// outside the program, so it refuses an ID admission would refuse.
func decodeRecord(data []byte) (*jobRecord, error) {
	r := new(jobRecord)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("server: decoding job record: %w", err)
	}
	if !validJobID(r.ID) {
		return nil, fmt.Errorf("server: decoding job record: id %q invalid", r.ID)
	}
	return r, nil
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
		r, err := decodeRecord(e.Data)
		if err != nil {
			logf("recovery: skipping %v", err)
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

// finishJob is the one terminal transition, for a worker's done or
// failed job (cause is the run error, nil for done) and for the
// queue-full/closed rejection of an admitted one (cause is the
// *Rejection being served). In order: build the terminal record; append
// it to the WAL; only then apply it (done closes, long-pollers wake);
// offer the same bytes to the ring successors; announce. The record is
// encoded once, and only when something consumes the bytes — a WAL or
// an installed fleet view; a bare in-memory server encodes nothing.
// Only servable records replicate. The offer never blocks the worker:
// the record is already durable locally, so a dropped offer only costs
// read locality until the next handoff.
func (s *Server) finishJob(job *Job, state JobState, jr *JobResult, tr *protocol.Transcript, cause error, now time.Time) {
	var errMsg string
	if cause != nil {
		errMsg = cause.Error()
	}
	rec := job.record()
	rec.end(state, jr, tr, errMsg, now, s.cfg.ResultTTL)
	replicate := s.repl.Ready() && rec.servable(now)
	var data []byte
	if s.store.wal != nil || replicate {
		var err error
		if data, err = encodeRecord(rec); err != nil {
			s.logf("job %s: %v", job.ID, err)
		}
	}
	s.store.Finish(job, &rec, data)
	if replicate && data != nil {
		s.repl.Offer(s.replicaRecord(job.ID, data))
	}
	s.announce(job, &rec, cause)
}

// announce makes one applied record observable beyond the job: its
// state picks the hub event, the counters and, for a finished run, the
// log line — admitted, running, done, failed, and the global (503)
// rejection, whose *Rejection is cause (nil otherwise). Phase events
// are not record transitions; runJob publishes them.
func (s *Server) announce(job *Job, r *jobRecord, cause error) {
	ev := tenant.Event{Time: r.Finished, Tenant: r.Spec.Tenant, JobID: r.ID}
	switch r.State {
	case StateQueued:
		// The admitting tenant: the registry folds identities past its
		// bound into the default tenant, whose label the metric carries.
		ev.Tenant = s.registry.Get(r.Spec.Tenant).ID
		s.metrics.accepted.Add(1)
		s.metrics.noteAdmitted(ev.Tenant)
		ev.Type, ev.Time, ev.Price = tenant.EventAdmitted, r.Submitted, s.observePrice(r.Submitted)
	case StateRunning:
		ev.Type, ev.Time = tenant.EventRunning, r.Started
	case StateDone:
		res := r.Result
		s.metrics.completed.Add(1)
		s.metrics.auctions.Add(int64(job.Tasks()))
		s.metrics.groupExp.Add(res.GroupExp)
		s.metrics.groupMul.Add(res.GroupMul)
		s.metrics.groupMultiExps.Add(res.GroupMultiExps)
		s.metrics.groupMultiExpTerms.Add(res.GroupMultiExpTerms)
		ev.Type = tenant.EventDone
		s.cfg.Logger.Info("job done",
			"job_id", r.ID, "request_id", r.Spec.RequestID, "tenant", r.Spec.Tenant,
			"agents", job.Agents(), "tasks", job.Tasks(),
			"matches_centralized", res.MatchesCentralized,
			"queue_wait_ms", float64(r.Started.Sub(r.Submitted))/float64(time.Millisecond),
			"run_ms", float64(r.Finished.Sub(r.Started))/float64(time.Millisecond))
	case StateFailed:
		s.metrics.failed.Add(1)
		ev.Type, ev.Error = tenant.EventFailed, r.Error
		s.cfg.Logger.Error("job failed",
			"job_id", r.ID, "request_id", r.Spec.RequestID, "tenant", r.Spec.Tenant,
			"error", r.Error,
			"elapsed_ms", float64(r.Finished.Sub(r.Submitted))/float64(time.Millisecond))
	case StateRejected:
		rej := cause.(*Rejection)
		s.metrics.noteRejected(rej.Tenant, rej.Reason)
		ev.Type, ev.Reason, ev.Price = tenant.EventRejected, rej.Reason, rej.Price
	}
	s.publish(job, ev)
}

// publish stamps ev with the hub sequence, fans it out to subscribers,
// and appends it to the job's replay history. The append happens inside
// the publish, under the hub lock: handleJobEvents subscribes and then
// replays, and must never find an event in neither place (see
// tenant.Hub.PublishRecorded).
func (s *Server) publish(job *Job, ev tenant.Event) {
	s.hub.PublishRecorded(ev, job.appendEvent)
}
