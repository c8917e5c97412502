package server

import (
	"io"
	"net/http"

	"dmw/internal/replica"
	"dmw/internal/wire"
)

// Binary intra-fleet protocol, server half (see internal/wire frames.go
// and docs/SCALING.md). Two kinds of caller reach the submit endpoints,
// so those decode both encodings: clients post JSON, the gateway posts
// job frames; the request Content-Type selects the decoder and the
// answer is JSON either way. The replica RPC has one kind of caller —
// another dmwd — and takes record frames only.
// Every response to a frame-typed request carries the X-DMW-Wire
// capability header, success or error.

// SpecToWire converts a job spec to its frame representation. The
// mapping is field-for-field; a round-trip equals the JSON round trip
// (pinned by TestWireSpecRoundTrip).
func SpecToWire(s JobSpec) wire.Job {
	j := wire.Job{
		ID:          s.ID,
		Bids:        s.Bids,
		W:           s.W,
		C:           s.C,
		Seed:        s.Seed,
		Parallelism: s.Parallelism,
		Record:      s.Record,
		CountOps:    s.CountOps,
		Trace:       s.Trace,
		LinkDelayMS: s.LinkDelayMS,
		RequestID:   s.RequestID,
		Tenant:      s.Tenant,
	}
	if s.Random != nil {
		j.Random = true
		j.RandomAgents = s.Random.Agents
		j.RandomTasks = s.Random.Tasks
		j.Bids = nil // exactly-one-of; the frame flag carries the choice
	}
	return j
}

// SpecFromWire inverts SpecToWire.
func SpecFromWire(j wire.Job) JobSpec {
	s := JobSpec{
		ID:          j.ID,
		Bids:        j.Bids,
		W:           j.W,
		C:           j.C,
		Seed:        j.Seed,
		Parallelism: j.Parallelism,
		Record:      j.Record,
		CountOps:    j.CountOps,
		Trace:       j.Trace,
		LinkDelayMS: j.LinkDelayMS,
		RequestID:   j.RequestID,
		Tenant:      j.Tenant,
	}
	if j.Random {
		s.Random = &RandomSpec{Agents: j.RandomAgents, Tasks: j.RandomTasks}
		s.Bids = nil
	}
	return s
}

// readFrameBody buffers a frame-typed request body. Frames are not
// streamable the way a JSON decoder is, so the body is read whole under
// the same size bound the JSON path enforces.
func readFrameBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// decodeJobFrameBody handles the binary branch of a submit endpoint:
// stamps the capability header, reads and decodes the frame, and
// answers the loud 400 itself on corrupt input. ok=false means the
// response is already written.
func (s *Server) decodeJobFrameBody(w http.ResponseWriter, r *http.Request, limit int64) ([]JobSpec, bool) {
	w.Header().Set(wire.HeaderWire, wire.WireV1)
	body, err := readFrameBody(w, r, limit)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "reading job frame: " + err.Error()})
		return nil, false
	}
	jobs, err := wire.DecodeJobFrame(body)
	if err != nil {
		// Corrupt or truncated frame: refuse loudly with the frame
		// diagnostic. Never fed to the JSON decoder — a misparse there
		// would misattribute the corruption or, worse, partially succeed.
		s.metrics.wireErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding job frame: " + err.Error()})
		return nil, false
	}
	s.metrics.wireRequests.Add(1)
	specs := make([]JobSpec, len(jobs))
	for i := range jobs {
		specs[i] = SpecFromWire(jobs[i])
	}
	return specs, true
}

// decodeRecordFrameBody is the binary branch of the replica RPC.
func (s *Server) decodeRecordFrameBody(w http.ResponseWriter, r *http.Request) ([]replica.Record, bool) {
	w.Header().Set(wire.HeaderWire, wire.WireV1)
	body, err := readFrameBody(w, r, maxReplicaBodyBytes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "reading record frame: " + err.Error()})
		return nil, false
	}
	wrecs, err := wire.DecodeRecordFrame(body)
	if err != nil {
		s.metrics.wireErrors.Add(1)
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding record frame: " + err.Error()})
		return nil, false
	}
	s.metrics.wireRequests.Add(1)
	recs := make([]replica.Record, len(wrecs))
	for i, wr := range wrecs {
		// Payload aliases the request buffer; that buffer is freshly
		// allocated per request and ends up owned by the replica store,
		// so no copy is needed.
		recs[i] = replica.Record{ID: wr.ID, Origin: wr.Origin, Epoch: wr.Epoch, Payload: wr.Payload}
	}
	return recs, true
}
