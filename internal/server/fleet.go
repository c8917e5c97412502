package server

import (
	"encoding/json"
	"net/http"
	"time"

	"dmw/internal/replica"
	"dmw/internal/wire"
)

// Fleet integration: this file is the server half of the replicated
// results tier (internal/replica). The membership agent feeds lease
// grants in through ApplyFleetView; workers offer terminal records out
// through finishJob; peers' pushes land in AcceptReplica; and
// reads that miss the primary store fall through to replicaJob — which
// is what lets a gateway read of an acknowledged job succeed from a
// ring successor after the owner died or left.

// maxReplicaBodyBytes bounds one replication POST body. Handoff batches
// are chunked at 256 records, but records carry full results and
// transcripts, so the ceiling is set well above the job-submit limits.
const maxReplicaBodyBytes = 32 << 20

// ApplyFleetView installs a new fleet view (from a membership lease
// grant) on the replicator, rebuilding its placement ring.
func (s *Server) ApplyFleetView(v replica.View) {
	s.repl.Update(v)
}

// FleetView returns the currently installed fleet view.
func (s *Server) FleetView() replica.View { return s.repl.CurrentView() }

// replicaRecord wraps the encoded bytes of a completed or failed job's
// terminal record — the very bytes its WAL entry holds — for the
// replication tier.
func (s *Server) replicaRecord(id string, payload []byte) replica.Record {
	return replica.Record{
		ID:      id,
		Origin:  s.replicaID,
		Epoch:   s.repl.CurrentView().Epoch,
		Payload: payload,
	}
}

// AcceptReplica stores pushed copies from ring predecessors, returning
// how many were accepted. Malformed, non-terminal, ID-mismatched, and
// already-expired payloads are skipped (logged), never fatal: the RPC
// is best-effort redundancy, not a consistency protocol.
func (s *Server) AcceptReplica(recs []replica.Record) int {
	now := time.Now()
	stored := 0
	for _, rec := range recs {
		var r jobRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			s.logf("replica: skipping undecodable copy %q from %s: %v", rec.ID, rec.Origin, err)
			continue
		}
		if r.ID != rec.ID || !r.State.Terminal() || r.State == StateRejected {
			s.logf("replica: skipping copy %q from %s: not a terminal record", rec.ID, rec.Origin)
			continue
		}
		if !r.Expires.IsZero() && now.After(r.Expires) {
			continue // past its TTL: do not resurrect
		}
		s.replStore.Put(rec, r.Expires)
		stored++
	}
	if stored > 0 {
		s.metrics.replicaAccepted.Add(int64(stored))
	}
	return stored
}

// replicaJob answers a read from the held copies: the record is decoded
// back into a terminal Job, so View/WaitDone/Transcript behave exactly
// as they would on the owner. (nil, false) when no live copy is held.
func (s *Server) replicaJob(id string) (*Job, bool) {
	rec, ok := s.replStore.Get(id, time.Now())
	if !ok {
		return nil, false
	}
	var r jobRecord
	if err := json.Unmarshal(rec.Payload, &r); err != nil {
		s.logf("replica: held copy %q undecodable: %v", id, err)
		return nil, false
	}
	if !r.State.Terminal() {
		return nil, false
	}
	s.metrics.replicaReads.Add(1)
	return jobFromRecord(r), true
}

// lookupJob is the read path shared by the job handlers: the primary
// store first (owner-preference), then the replica copies.
func (s *Server) lookupJob(id string) (*Job, bool) {
	if job, ok := s.Get(id); ok {
		return job, true
	}
	return s.replicaJob(id)
}

// handoffReplicas synchronously pushes everything this node holds —
// owned terminal records plus guarded copies — to the current ring
// targets. Called while draining (workers done, lease still held), so
// a graceful leave moves every acknowledged record onto the survivors
// before the member disappears from the ring.
func (s *Server) handoffReplicas() {
	if !s.repl.Ready() {
		return
	}
	now := time.Now()
	seen := make(map[string]bool)
	var recs []replica.Record
	for _, j := range s.store.snapshotJobs() {
		// Only completed and failed jobs are acknowledged work; a rejected
		// record is a transient backpressure marker.
		r := j.record()
		if !r.State.Terminal() || r.State == StateRejected || now.After(r.Expires) {
			continue
		}
		payload, err := encodeRecord(r)
		if err != nil {
			s.logf("replica: %v", err)
			continue
		}
		seen[r.ID] = true
		recs = append(recs, s.replicaRecord(r.ID, payload))
	}
	for _, rec := range s.replStore.All() {
		if !seen[rec.ID] {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return
	}
	s.logf("replica: handing off %d records before leaving", len(recs))
	s.repl.Handoff(recs)
}

// handleReplicaRecords is POST /v1/replica/records: the replication RPC
// peers push terminal-record copies through (single records at finish
// time, batches at drain time). Its only caller is another dmwd, which
// sends record frames; any other body is a 415.
func (s *Server) handleReplicaRecords(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") != wire.ContentTypeRecordFrame {
		writeJSON(w, http.StatusUnsupportedMediaType, apiError{Error: "replica records must be posted as " + wire.ContentTypeRecordFrame})
		return
	}
	recs, ok := s.decodeRecordFrameBody(w, r)
	if !ok {
		return
	}
	s.metrics.replicaAcceptBatch.Observe(float64(len(recs)))
	s.AcceptReplica(recs)
	w.WriteHeader(http.StatusNoContent)
}
