package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dmw/internal/membership"
	"dmw/internal/obs"
	"dmw/internal/server"
	"dmw/internal/tenant"
	"dmw/internal/wire"
)

// maxBodyBytes / maxBatchBodyBytes mirror dmwd's own request bounds so
// the gateway rejects oversized bodies before buffering them for
// replay.
const (
	maxBodyBytes      = 1 << 20
	maxBatchBodyBytes = 8 << 20
	maxBatchJobs      = 256
)

// maxRelayBytes bounds a buffered backend RESPONSE (results, batch
// item arrays, transcripts). Exceeding it is a backend error, never a
// silent truncation — see tryBackend.
const maxRelayBytes = 8 << 20

// Handler returns the gateway's HTTP API — the same surface as one
// dmwd, fronting the fleet:
//
//	POST /v1/jobs                 route by job ID (assigned if absent), failover to successors
//	POST /v1/jobs/batch           scatter along ring placement, gather in input order
//	GET  /v1/jobs/{id}            route by ID; successors searched on miss
//	GET  /v1/jobs/{id}/transcript same routing as job reads
//	GET  /v1/jobs/{id}/trace      same routing; relays the replica's span JSONL
//	GET  /v1/jobs/{id}/events     same routing; relays the replica's SSE stream
//	GET  /v1/events               fleet firehose: every replica's SSE events merged
//	POST   /v1/membership/lease          acquire/renew a membership lease (see internal/membership)
//	DELETE /v1/membership/lease/{name}   graceful lease release
//	GET  /healthz                 gateway + per-backend fleet view (+ ring epoch, lease state)
//	GET  /metrics                 gateway counters + summed fleet counters
//
// Every route runs behind the request-ID middleware: the X-Request-Id
// header is adopted (or generated), echoed to the client, forwarded on
// every backend attempt, and logged — one correlation ID follows a job
// from the client through the gateway onto whichever replica ran it.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", g.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/transcript", g.handleGetJob) // same routing; path preserved below
	mux.HandleFunc("GET /v1/jobs/{id}/trace", g.handleGetJob)      // same routing; path preserved below
	mux.HandleFunc("GET /v1/jobs/{id}/events", g.handleJobEvents)
	mux.HandleFunc("GET /v1/events", g.handleFirehose)
	mux.HandleFunc("POST "+membership.LeasePath, g.handleLeaseAcquire)
	mux.HandleFunc("DELETE "+membership.LeasePath+"/{name}", g.handleLeaseRelease)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g.withRequestID(mux)
}

// ridKey carries the request's correlation ID through the context, from
// the middleware down to every backend attempt under that request.
type ridKey struct{}

// requestIDFrom extracts the middleware-assigned correlation ID.
func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// tenantKey carries the inbound X-Tenant-Id through the context so
// EVERY backend attempt — including failover retries — presents the
// same identity. A retry that dropped the header would be admitted
// (and rate-accounted) as the default tenant on the successor.
type tenantKey struct{}

// tenantFrom extracts the middleware-captured tenant identity ("" when
// the client sent none).
func tenantFrom(ctx context.Context) string {
	tid, _ := ctx.Value(tenantKey{}).(string)
	return tid
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

// Flush forwards to the wrapped writer so the SSE relays see a
// flushable stream through the access-log wrapper.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Unwrap supports http.ResponseController traversal.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withRequestID is the correlation middleware, the gateway twin of
// dmwd's: adopt the inbound X-Request-Id (sanitized) or mint one, echo
// it to the client, thread it through the context so tryBackend stamps
// it onto every replica attempt, and emit one access-log line.
func (g *Gateway) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obs.CleanRequestID(r.Header.Get(obs.HeaderRequestID))
		w.Header().Set(obs.HeaderRequestID, rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		ctx := context.WithValue(r.Context(), ridKey{}, rid)
		if tid := r.Header.Get(tenant.HeaderTenantID); tid != "" {
			ctx = context.WithValue(ctx, tenantKey{}, tenant.CleanID(tid))
		}
		next.ServeHTTP(sw, r.WithContext(ctx))
		g.cfg.Logger.Info("http",
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

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

// proxyReq is one request to relay: the same bytes are offered to each
// candidate in turn.
type proxyReq struct {
	method, path, rawQuery string
	// body is nil for reads; every body the gateway sends to the fleet
	// is a binary job frame.
	body []byte
}

// attemptResult is the answer of one proxied try against one backend,
// body fully read into memory (bounded).
type attemptResult struct {
	status int
	header http.Header
	body   []byte
	// buf is the pooled buffer backing body; non-nil results must reach
	// exactly one releaseResult.
	buf *relayBuf
}

// tryBackend sends req to b — the one attempt function, for reads and
// submits alike. A transport error or a 5xx status OTHER than 503 is
// returned as err (failover-worthy); any other status is a definitive
// answer. Response bodies land in the pooled relay arena; on a nil
// error the caller owns the result's buffer reference.
//
// 503 is deliberately definitive: dmwd's queue-full/draining response
// has already created a durable rejected record for the job ID on that
// replica. Failing the submit over to a ring successor would run the
// job there while the owner keeps the rejection — divergent durable
// state that reads (which hit the healthy owner first) would report as
// "rejected" forever. Instead the 503 (with its Retry-After) is
// relayed; dmwd re-admits the ID on retry, so backpressure never
// poisons a job ID.
//
// 429 is definitive for the same family of reasons: it is the tenant
// policy layer's deliberate answer (rate / quota), computed by
// the replica that owns the job ID. Retrying it on a successor would
// let a throttled tenant shop for the one replica whose token bucket
// still has room, defeating per-replica admission control. The 429
// relays with its derived Retry-After intact.
func (g *Gateway) tryBackend(ctx context.Context, b *backend, req proxyReq) (*attemptResult, error) {
	if err := b.acquire(ctx); err != nil {
		return nil, err
	}
	defer b.release()

	// Observe the attempt's wall time whatever its outcome: transport
	// errors and 5xx answers took real time the fleet dashboard must see.
	// The exemplar ties a tail-bucket observation back to a concrete
	// request ID so a p999 outlier on a dashboard resolves to a
	// fetchable trace; attempts past SlowThreshold additionally leave a
	// structured slow_request log line with the same correlation ID.
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		rid := requestIDFrom(ctx)
		b.reqHist.ObserveEx(elapsed.Seconds(), &obs.Exemplar{
			RequestID: rid,
			Tenant:    tenantFrom(ctx),
			Backend:   b.name,
		})
		if g.cfg.SlowThreshold > 0 && elapsed > g.cfg.SlowThreshold {
			g.metrics.slowRequests.Add(1)
			g.cfg.Logger.Warn("slow_request",
				"request_id", rid,
				"backend", b.name,
				"method", req.method,
				"path", req.path,
				"elapsed_ms", float64(elapsed)/float64(time.Millisecond),
				"threshold_ms", float64(g.cfg.SlowThreshold)/float64(time.Millisecond))
		}
	}()

	var rd io.Reader
	if req.body != nil {
		rd = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequestWithContext(ctx, req.method, b.joinPath(req.path, req.rawQuery), rd)
	if err != nil {
		return nil, err
	}
	if req.body != nil {
		hreq.Header.Set("Content-Type", wire.ContentTypeJobFrame)
	}
	// Forward the correlation ID so the replica's access log, job record
	// and trace carry the same request_id the gateway logged.
	if rid := requestIDFrom(ctx); rid != "" {
		hreq.Header.Set(obs.HeaderRequestID, rid)
	}
	// Forward the tenant identity on every attempt: admission control on
	// a failover successor must see the same tenant the owner would have.
	if tid := tenantFrom(ctx); tid != "" {
		hreq.Header.Set(tenant.HeaderTenantID, tid)
	}
	resp, err := b.client.Do(hreq)
	if err != nil {
		g.metrics.backendErrors.Add(1)
		return nil, fmt.Errorf("backend %s: %w", b.name, err)
	}
	defer resp.Body.Close()
	// Read one byte past the relay bound so overflow is DETECTED: a
	// silently truncated body relayed with the original 200 would hand
	// the client corrupt JSON.
	buf := g.relayBufs.get()
	n, err := buf.bb.ReadFrom(io.LimitReader(resp.Body, maxRelayBytes+1))
	if err != nil {
		g.relayBufs.release(buf)
		g.metrics.backendErrors.Add(1)
		return nil, fmt.Errorf("backend %s: reading response: %w", b.name, err)
	}
	if n > maxRelayBytes {
		g.relayBufs.release(buf)
		g.metrics.backendErrors.Add(1)
		return nil, fmt.Errorf("backend %s: response exceeds relay limit of %d bytes", b.name, maxRelayBytes)
	}
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
		g.relayBufs.release(buf)
		g.metrics.backendErrors.Add(1)
		return nil, fmt.Errorf("backend %s: HTTP %d", b.name, resp.StatusCode)
	}
	if !b.wireSeen.Load() && resp.Header.Get(wire.HeaderWire) != "" && b.wireSeen.CompareAndSwap(false, true) {
		g.metrics.wireNegotiated.Add(1)
	}
	return &attemptResult{status: resp.StatusCode, header: resp.Header, body: buf.bb.Bytes(), buf: buf}, nil
}

// forward walks the candidate list for key — the one walk, for reads
// and submits alike — returning the first definitive response.
// Failover-worthy errors (see tryBackend) advance to the next
// candidate; notFoundFallthrough additionally advances on 404 (job
// reads: a failover-submitted job lives on a successor).
//
// A 404 is only returned when EVERY candidate answered it. If any
// candidate was unreachable (transport error / failover-worthy 5xx)
// and nobody found the job, the walk fails with that error instead:
// the replica that durably holds the job may be the one that is down,
// and telling the client "unknown ID" during that window reads as data
// loss, while a 502 tells it to retry.
func (g *Gateway) forward(ctx context.Context, key string, req proxyReq, notFoundFallthrough bool) (*attemptResult, error) {
	cands := g.candidates(key)
	var lastMiss *attemptResult
	var lastErr error
	for i, b := range cands {
		if i > 0 {
			g.metrics.failovers.Add(1)
			cause := "not found on predecessor"
			if lastErr != nil {
				cause = lastErr.Error()
			}
			g.cfg.Logger.Warn("failover",
				"request_id", requestIDFrom(ctx),
				"key", key,
				"path", req.path,
				"to", b.name,
				"hop", i,
				"cause", cause)
		}
		res, err := g.tryBackend(ctx, b, req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if notFoundFallthrough && res.status == http.StatusNotFound {
			g.releaseResult(lastMiss) // keep only the newest miss buffered
			lastMiss = res
			continue
		}
		g.releaseResult(lastMiss)
		return res, nil
	}
	if lastMiss != nil && lastErr == nil {
		// Every candidate answered, and all said 404: the ID is
		// genuinely unknown.
		return lastMiss, nil
	}
	g.releaseResult(lastMiss)
	if lastErr == nil {
		lastErr = errNoCandidates
	}
	return nil, lastErr
}

// errNoCandidates is the walk's error when the fleet is empty.
var errNoCandidates = errors.New("no backend candidates")

// unrouted answers a request no replica served: a 502 saying why. The
// exception is an empty fleet on a gateway younger than one LeaseTTL —
// a fresh or restarted gateway whose members have not renewed here yet
// — which answers 503 with a Retry-After of one renew period (a third
// of the TTL): retry, the fleet is on its way, not broken.
func (g *Gateway) unrouted(w http.ResponseWriter, err error, failure string) {
	g.metrics.unrouted.Add(1)
	if errors.Is(err, errNoCandidates) && time.Since(g.start) < g.cfg.LeaseTTL {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(g.cfg.LeaseTTL/3/time.Second))))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: failure + ": gateway warming up, " + err.Error()})
		return
	}
	writeJSON(w, http.StatusBadGateway, apiError{Error: failure + ": " + err.Error()})
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	var spec server.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding job spec: " + err.Error()})
		return
	}
	if spec.ID == "" {
		// Naming the job here is what makes the retry below idempotent:
		// a replica that received the first attempt and one that
		// receives the retry agree on the identity.
		spec.ID = newJobID()
		g.metrics.assignedIDs.Add(1)
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	// A single submit is a batch of one: a one-job frame to the owner.
	frame, err := jobFrame([]server.JobSpec{spec})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "encoding job spec: " + err.Error()})
		return
	}
	g.proxy(ctx, w, spec.ID, postFrame("/v1/jobs", frame), false, "no replica accepted the job")
}

// proxy answers the client with whatever forward gets for req: the
// first definitive backend response relayed as is, or unrouted's answer
// saying why nobody gave one.
func (g *Gateway) proxy(ctx context.Context, w http.ResponseWriter, key string, req proxyReq, notFoundFallthrough bool, failure string) {
	res, err := g.forward(ctx, key, req, notFoundFallthrough)
	if err != nil {
		g.unrouted(w, err, failure)
		return
	}
	relay(w, res)
	g.releaseResult(res)
}

func (g *Gateway) handleGetJob(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout+readWaitAllowance(r))
	defer cancel()
	g.proxy(ctx, w, r.PathValue("id"), proxyReq{method: http.MethodGet, path: r.URL.Path, rawQuery: r.URL.RawQuery}, true, "no replica reachable")
}

// readWaitAllowance extends the proxy deadline by the long-poll dmwd
// will hold for the client's ?wait (the wait, clamped to server.MaxWait
// as dmwd clamps it) so the gateway does not cut a poll short.
func readWaitAllowance(r *http.Request) time.Duration {
	d, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil || d <= 0 {
		return 0
	}
	return min(d, server.MaxWait)
}

// relay writes a buffered backend response to the client. Retry-After
// passes through unmodified: dmwd's 503s AND 429s are definitive
// per-replica answers (tryBackend never fails either over), and the
// backoff the owner computed is the one the client must see.
func relay(w http.ResponseWriter, res *attemptResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// handleSubmitBatch splits the batch along ring placement, submits each
// shard to its owner concurrently (per-shard failover, exactly like
// single submits), and merges the per-item results back into input
// order. A shard whose every candidate is unreachable reports per-item
// errors rather than failing the whole batch — same per-item contract
// as dmwd itself.
func (g *Gateway) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	var specs []server.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding job spec array: " + err.Error()})
		return
	}
	if len(specs) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "empty batch"})
		return
	}
	if len(specs) > maxBatchJobs {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("batch of %d jobs exceeds limit %d", len(specs), maxBatchJobs)})
		return
	}

	// Shard by ring owner, remembering each spec's input position. Two
	// passes: the first counts per-owner items so every shard slice is
	// allocated at its exact final size (a per-item append on an unsized
	// slice reallocates log(n) times per shard per batch, pure overhead
	// on the gateway's hottest write path).
	type shard struct {
		indices []int
		specs   []server.JobSpec
		frame   []byte // specs as one job frame
	}
	owners := make([]string, len(specs))
	counts := make(map[string]int)
	for i := range specs {
		if specs[i].ID == "" {
			specs[i].ID = newJobID()
			g.metrics.assignedIDs.Add(1)
		}
		owner, ok := g.ring.Owner(specs[i].ID)
		if !ok {
			// Fleet fully ejected: best effort via any member. The
			// forwarding walk visits the full candidate list per shard
			// anyway.
			bs := g.snapshotBackends()
			if len(bs) == 0 {
				g.unrouted(w, errNoCandidates, "no replica accepted the batch")
				return
			}
			owner = bs[0].name
		}
		owners[i] = owner
		counts[owner]++
	}
	shards := make(map[string]*shard, len(counts))
	for i := range specs {
		sh := shards[owners[i]]
		if sh == nil {
			n := counts[owners[i]]
			sh = &shard{indices: make([]int, 0, n), specs: make([]server.JobSpec, 0, n)}
			shards[owners[i]] = sh
		}
		sh.indices = append(sh.indices, i)
		sh.specs = append(sh.specs, specs[i])
	}
	// Frame every shard before sending any: a spec the frame encoder
	// refuses fails the request while nothing has been admitted yet.
	for _, sh := range shards {
		var err error
		if sh.frame, err = jobFrame(sh.specs); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "encoding job spec array: " + err.Error()})
			return
		}
	}
	g.metrics.batchShards.Add(int64(len(shards)))

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	merged := make([]server.BatchItem, len(specs))
	var wg sync.WaitGroup
	for owner, sh := range shards {
		wg.Add(1)
		go func(owner string, sh *shard) {
			defer wg.Done()
			// Failover order keyed by the first job in the shard: every
			// job in the shard has the same owner, so the successor walk
			// is the same for all of them. The shard goes out as a job
			// frame; the answer stays JSON because the client-facing
			// merge below is JSON anyway.
			res, err := g.forward(ctx, sh.specs[0].ID, postFrame("/v1/jobs/batch", sh.frame), false)
			if err == nil {
				var items []server.BatchItem
				if res.status == http.StatusOK && json.Unmarshal(res.body, &items) == nil && len(items) == len(sh.indices) {
					g.releaseResult(res)
					for k, idx := range sh.indices {
						merged[idx] = items[k]
					}
					return
				}
				err = fmt.Errorf("shard response HTTP %d", res.status)
				g.releaseResult(res)
			}
			g.metrics.unrouted.Add(int64(len(sh.indices)))
			for _, idx := range sh.indices {
				merged[idx] = server.BatchItem{Error: "replica " + owner + " unavailable: " + err.Error()}
			}
		}(owner, sh)
	}
	wg.Wait()
	// Encode the merged answer through the pooled arena instead of a
	// fresh encoder allocation per batch.
	buf := g.relayBufs.get()
	enc := json.NewEncoder(&buf.bb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		g.relayBufs.release(buf)
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.bb.Bytes())
	g.relayBufs.release(buf)
}
