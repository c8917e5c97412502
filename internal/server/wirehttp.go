package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"dmw/internal/replica"
	"dmw/internal/wire"
)

// Binary intra-fleet protocol, server half (see internal/wire frames.go
// and docs/SCALING.md). Two kinds of caller reach the submit endpoints,
// so those decode both encodings: clients post JSON, the gateway posts
// job frames; the request Content-Type selects the decoder and the
// Accept header selects the batch-result encoder. The replica RPC has
// one kind of caller — another dmwd — and takes record frames only.
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
		MaxPrice:    s.MaxPrice,
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
		MaxPrice:    j.MaxPrice,
	}
	if j.Random {
		s.Random = &RandomSpec{Agents: j.RandomAgents, Tasks: j.RandomTasks}
		s.Bids = nil
	}
	return s
}

// frameBufPool holds result-frame assembly buffers; one buffer serves
// one batch response and is returned after the write, so steady-state
// batch traffic re-encodes with no per-request buffer allocation.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 16<<10); return &b },
}

// maxPooledFrameBuf bounds the capacity the pool retains: a buffer
// grown by one huge batch is dropped to the GC instead of pinning
// megabytes for every future small batch.
const maxPooledFrameBuf = 1 << 20

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

// writeResultFrame renders batch items as a binary result frame. Job
// views are marshaled once here — the gateway relays the bytes to each
// coalesced waiter without re-parsing them.
func (s *Server) writeResultFrame(w http.ResponseWriter, items []BatchItem) {
	bufp := frameBufPool.Get().(*[]byte)
	defer func() {
		if cap(*bufp) <= maxPooledFrameBuf {
			frameBufPool.Put(bufp)
		}
	}()
	frameItems := make([]wire.ResultItem, len(items))
	for i := range items {
		it := &items[i]
		frameItems[i] = wire.ResultItem{
			Status:        it.Status,
			RetryAfterSec: it.RetryAfterSec,
			Price:         it.Price,
			ErrMsg:        it.Error,
		}
		if it.Job != nil {
			view, err := json.Marshal(it.Job)
			if err != nil {
				// A view that cannot marshal would have failed the JSON
				// path identically; surface it per item.
				frameItems[i].Status = http.StatusInternalServerError
				frameItems[i].ErrMsg = "encoding job view: " + err.Error()
				continue
			}
			frameItems[i].Body = view
		}
	}
	*bufp = wire.AppendResultFrame((*bufp)[:0], frameItems)
	w.Header().Set("Content-Type", wire.ContentTypeResultFrame)
	w.Header().Set(wire.HeaderWire, wire.WireV1)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bufp)
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
