package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"dmw/internal/audit"
	"dmw/internal/obs"
	"dmw/internal/replica"
	"dmw/internal/slo"
	"dmw/internal/tenant"
	"dmw/internal/wire"
)

// maxBodyBytes bounds POST bodies; a 64x64 bid matrix is ~20 KB of
// JSON, so 1 MiB leaves ample headroom.
const maxBodyBytes = 1 << 20

// maxBatchBodyBytes bounds POST /v1/jobs/batch bodies, and
// maxBatchJobs caps the specs per batch (256 jobs x ~20 KB fits).
const (
	maxBatchBodyBytes = 8 << 20
	maxBatchJobs      = 256
)

// MaxWait caps the ?wait long-poll on GET /v1/jobs/{id}: a longer wait
// is served as this one. Exported so the gateway can size its proxy
// deadline to the poll dmwd will actually hold.
const MaxWait = 30 * time.Second

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs                 submit a job (bid matrix or random spec)
//	POST /v1/jobs/batch           submit an array of jobs (per-item accept/reject)
//	GET  /v1/jobs/{id}            job status/result (optional ?wait=5s)
//	GET  /v1/jobs/{id}/transcript verifiable transcript envelope (audit)
//	GET  /v1/jobs/{id}/trace      protocol span trace as JSONL (spec trace:true)
//	GET  /v1/jobs/{id}/events     job lifecycle as Server-Sent Events (sse.go)
//	GET  /v1/events               tenant firehose SSE (?tenant= filters)
//	GET  /healthz                 liveness + drain state
//	GET  /metrics                 plain-text counters and histograms
//
// Every route runs behind the request-ID middleware: the X-Request-Id
// header is echoed (or generated), stamped onto submitted jobs, and
// attached to the structured access log line of each request. Submits
// additionally honor the X-Tenant-Id header (tenancy; docs/TENANCY.md).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/transcript", s.handleTranscript)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/events", s.handleFirehose)
	mux.HandleFunc("POST "+replica.RecordsPath, s.handleReplicaRecords)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withRequestID(mux)
}

// ridKey carries the request's correlation ID through the context.
type ridKey struct{}

// requestIDFrom extracts the middleware-assigned correlation ID.
func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// statusWriter captures the response status for access logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the SSE handlers see a
// flushable stream through the access-log wrapper. net/http always
// implements Flusher, so the assertion only fails under exotic
// middleware — then Flush degrades to a no-op and events arrive when
// the transport buffer fills.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap supports http.ResponseController traversal.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withRequestID is the correlation middleware: it adopts the inbound
// X-Request-Id (sanitized) or generates one, echoes it on the response,
// threads it through the context for handlers to stamp onto job specs,
// and emits one structured access-log line per request.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obs.CleanRequestID(r.Header.Get(obs.HeaderRequestID))
		w.Header().Set(obs.HeaderRequestID, rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		elapsed := time.Since(start)
		s.cfg.Logger.Info("http",
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed_ms", float64(elapsed)/float64(time.Millisecond))
		if s.cfg.SlowThreshold > 0 && elapsed > s.cfg.SlowThreshold {
			// The structured slow_request event: one greppable line per
			// request that crossed the capture-on-slow threshold, with
			// the correlation ID an exemplar chase starts from.
			s.cfg.Logger.Warn("slow_request",
				"request_id", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
				"threshold_ms", float64(s.cfg.SlowThreshold)/float64(time.Millisecond))
		}
	})
}

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// retryAfterSecs derives an integral Retry-After value: whole seconds,
// rounded up, at least 1 (a zero would invite an immediate retry
// storm).
func retryAfterSecs(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeItem renders one admission outcome as the answer to a single
// submit: the item's own status, and for refusals the guidance derived
// at admission time — a Retry-After computed from the actual refusing
// gate (token refill time for rate limits, expected queue-drain time
// otherwise, never a hardcoded constant). The body is the job view
// when a record exists (202, and 503 whose rejected record the client
// can poll), the error envelope otherwise.
func writeItem(w http.ResponseWriter, it BatchItem) {
	if it.Status == http.StatusTooManyRequests || it.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(it.RetryAfterSec))
	}
	if it.Job != nil {
		writeJSON(w, it.Status, it.Job)
		return
	}
	writeJSON(w, it.Status, apiError{Error: it.Error})
}

// stampIdentity fills the correlation ID and tenant a spec left empty
// from the request that carried it (X-Request-Id, X-Tenant-Id).
func stampIdentity(r *http.Request, specs []JobSpec) {
	rid := requestIDFrom(r.Context())
	tid := r.Header.Get(tenant.HeaderTenantID)
	for i := range specs {
		if specs[i].RequestID == "" {
			specs[i].RequestID = rid
		}
		if specs[i].Tenant == "" {
			specs[i].Tenant = tid
		}
	}
}

// handleSubmit admits one job spec — a JSON object from a client, or a
// one-job frame from the gateway — as a batch of one, and answers with
// that item's own status, headers and body.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	if r.Header.Get("Content-Type") == wire.ContentTypeJobFrame {
		var ok bool
		if specs, ok = s.decodeJobFrameBody(w, r, maxBodyBytes); !ok {
			return
		}
		if len(specs) != 1 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("job frame carries %d specs; POST /v1/jobs takes exactly one", len(specs))})
			return
		}
	} else {
		specs = make([]JobSpec, 1)
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&specs[0]); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding job spec: " + err.Error()})
			return
		}
	}
	stampIdentity(r, specs)
	writeItem(w, s.admitBatch(specs)[0].item())
}

// handleSubmitBatch admits an array of job specs (JSON from a client, a
// job frame from the gateway). Admission is per-item (one invalid spec
// or a full queue never fails the batch); the journal-backed store
// persists all valid admissions with a single WAL append batch,
// amortizing the fsync across the request. Responds 200 with a
// BatchItem per spec, positionally aligned with the input.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var specs []JobSpec
	if r.Header.Get("Content-Type") == wire.ContentTypeJobFrame {
		var ok bool
		if specs, ok = s.decodeJobFrameBody(w, r, maxBatchBodyBytes); !ok {
			return
		}
	} else {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&specs); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding job spec array: " + err.Error()})
			return
		}
	}
	if len(specs) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "empty batch"})
		return
	}
	if len(specs) > maxBatchJobs {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("batch of %d jobs exceeds limit %d", len(specs), maxBatchJobs)})
		return
	}
	stampIdentity(r, specs)
	writeJSON(w, http.StatusOK, s.SubmitBatch(specs))
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	// Reads consult the primary store first, then the replica copies
	// this node guards for its ring predecessors — so a gateway read
	// that fell through from a dead owner still finds the record.
	job, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid wait duration"})
			return
		}
		if d > MaxWait {
			d = MaxWait
		}
		job.WaitDone(d)
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleTranscript(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	if !job.State().Terminal() {
		writeJSON(w, http.StatusConflict, apiError{Error: "job not finished; poll GET /v1/jobs/{id} first"})
		return
	}
	tr := job.Transcript()
	if tr == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no transcript captured; submit the job with \"record\": true"})
		return
	}
	// The envelope matches dmwaudit's on-disk format: pipe it straight
	// to a file and verify offline.
	w.Header().Set("Content-Type", "application/json")
	if err := audit.Save(w, s.params, tr); err != nil {
		// Headers are already out; best effort.
		s.logf("job %s: writing transcript: %v", job.ID, err)
	}
}

// handleTrace serves the recorded protocol spans as JSONL (one span
// object per line), the input format of cmd/dmwtrace. 404 for unknown
// jobs and for jobs submitted without "trace": true; 409 while the job
// is still queued or running (traces are attached at completion).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	if !job.State().Terminal() {
		writeJSON(w, http.StatusConflict, apiError{Error: "job not finished; poll GET /v1/jobs/{id} first"})
		return
	}
	spans := job.Spans()
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no trace recorded; submit the job with \"trace\": true"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := obs.WriteJSONL(w, spans); err != nil {
		s.logf("job %s: writing trace: %v", job.ID, err)
	}
}

// healthView is the GET /healthz body.
type healthView struct {
	Status string `json:"status"` // "ok" | "draining"
	// ReplicaID is this instance's stable identity (persisted in the
	// data dir when durable, random otherwise): load balancers key on
	// it to distinguish "same backend restarted" from "different
	// backend behind a reused address".
	ReplicaID string `json:"replica_id"`
	// Version is the build stamp (-ldflags -X dmw/internal/obs.Version;
	// "dev" unstamped), with the Go toolchain alongside.
	Version    string  `json:"version"`
	GoVersion  string  `json:"go_version"`
	UptimeSecs float64 `json:"uptime_seconds"`
	QueueDepth int     `json:"queue_depth"`
	Workers    int     `json:"workers"`
	LiveJobs   int     `json:"live_jobs"`
	// Tenants counts known tenant identities; EventSubscribers counts
	// live SSE subscriptions on the event hub.
	Tenants          int `json:"tenants"`
	EventSubscribers int `json:"event_subscribers"`
	// TableBuildSeconds is the boot cost of building the group's
	// precomputed tables.
	TableBuildSeconds float64 `json:"table_build_seconds"`
	// Journal summarizes the WAL when durability is enabled (-data-dir).
	Journal *journalView `json:"journal,omitempty"`
	// Fleet summarizes the replicated results tier once a membership
	// lease grant has installed a fleet view (absent when static).
	Fleet *fleetView `json:"fleet,omitempty"`
	// SLO carries the declared objectives' burn-rate verdicts (absent
	// without -slo); "breaching" here is the paged condition, not mere
	// elevated latency. See docs/OBSERVABILITY.md.
	SLO []slo.Verdict `json:"slo,omitempty"`
}

// fleetView is the JSON stats surface of the replica tier.
type fleetView struct {
	Epoch          uint64 `json:"epoch"`
	Peers          int    `json:"peers"`
	Replication    int    `json:"replication"`
	ReplicaRecords int    `json:"replica_records"`
}

// journalView is the JSON stats surface of the WAL.
type journalView struct {
	Appends      uint64 `json:"journal_appends"`
	Fsyncs       uint64 `json:"journal_fsyncs"`
	Bytes        uint64 `json:"journal_bytes"`
	Segments     int    `json:"journal_segments"`
	ReplayedJobs int    `json:"journal_replayed_jobs"`
	Recoveries   int    `json:"journal_recoveries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, start := s.draining, s.startTime
	s.mu.Unlock()
	hv := healthView{
		Status:            "ok",
		ReplicaID:         s.replicaID,
		Version:           obs.Version,
		GoVersion:         obs.GoVersion(),
		QueueDepth:        s.queue.Len(),
		Workers:           s.cfg.Workers,
		LiveJobs:          s.store.Len(),
		Tenants:           s.registry.Len(),
		EventSubscribers:  s.hub.Subscribers(),
		TableBuildSeconds: s.grp.TableBuildTime().Seconds(),
	}
	if st, ok := s.JournalStats(); ok {
		replayed, recoveries := s.RecoveryStats()
		hv.Journal = &journalView{
			Appends:      st.Appends,
			Fsyncs:       st.Fsyncs,
			Bytes:        st.Bytes,
			Segments:     st.Segments,
			ReplayedJobs: replayed,
			Recoveries:   recoveries,
		}
	}
	if view := s.repl.CurrentView(); view.Epoch > 0 {
		hv.Fleet = &fleetView{
			Epoch:          view.Epoch,
			Peers:          len(view.Peers),
			Replication:    view.Replication,
			ReplicaRecords: s.replStore.Len(),
		}
	}
	if !start.IsZero() {
		hv.UptimeSecs = time.Since(start).Seconds()
	}
	hv.SLO = s.SLOVerdicts()
	status := http.StatusOK
	if draining {
		hv.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, hv)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}
