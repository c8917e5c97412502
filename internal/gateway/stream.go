package gateway

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmw/internal/obs"
	"dmw/internal/tenant"
)

// SSE relay. Two shapes:
//
//   - GET /v1/jobs/{id}/events walks the job's ring candidates exactly
//     like a read (404 falls through to successors — a job submitted
//     during a failover window streams from wherever it landed) and
//     relays the first replica that has the job, flushing every event
//     through as it arrives.
//   - GET /v1/events merges the firehoses of every live replica into
//     one client stream: events interleave in arrival order, each SSE
//     frame written atomically so frames from different replicas never
//     shear into each other. ?tenant= filters are forwarded so the
//     filtering happens at the source.
//
// Streams bypass the per-backend in-flight semaphore: a few thousand
// idle event streams parked on a replica must not starve the bounded
// slots that job submissions and reads contend for. The replica's own
// event hub is built for cheap idle subscribers; the gateway adds only
// a goroutine and a buffer per stream.

// streamClient issues b's streaming GET without buffering the body.
// The caller owns resp.Body. Uses the backend's shared transport (and
// so its keep-alive pool) but no client-level timeout: the stream
// deadline comes from ctx.
func (b *backend) streamClient(ctx context.Context, path, rawQuery string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.joinPath(path, rawQuery), nil)
	if err != nil {
		return nil, err
	}
	if rid := requestIDFrom(ctx); rid != "" {
		req.Header.Set(obs.HeaderRequestID, rid)
	}
	if tid := tenantFrom(ctx); tid != "" {
		req.Header.Set(tenant.HeaderTenantID, tid)
	}
	req.Header.Set("Accept", "text/event-stream")
	return b.client.Do(req)
}

// streamContext derives the stream deadline from StreamTimeout
// (negative = unbounded).
func (g *Gateway) streamContext(parent context.Context) (context.Context, context.CancelFunc) {
	if g.cfg.StreamTimeout < 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, g.cfg.StreamTimeout)
}

// startSSERelay negotiates the client side of a relayed stream.
func startSSERelay(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "streaming unsupported by this connection"})
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// relayStream copies body to w with flush-through: every read chunk is
// written and flushed immediately, so an event the replica emitted is
// on the client's wire before the next one exists. Returns on EOF
// (replica ended the stream), client disconnect, or replica error.
func relayStream(w io.Writer, fl http.Flusher, body io.Reader) {
	buf := make([]byte, 32*1024)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			fl.Flush()
		}
		if err != nil {
			return
		}
	}
}

// handleJobEvents relays one job's SSE stream from whichever candidate
// replica holds the job. The candidate walk mirrors handleGetJob: 404s
// fall through to ring successors, transport errors and failover-worthy
// 5xx advance too, and any other definitive answer (including 503) is
// relayed as-is.
func (g *Gateway) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	id := r.PathValue("id")
	ctx, cancel := g.streamContext(r.Context())
	defer cancel()

	sawMiss := false
	var lastErr error
	for i, b := range g.candidates(id) {
		if i > 0 {
			g.metrics.failovers.Add(1)
		}
		resp, err := b.streamClient(ctx, r.URL.Path, r.URL.RawQuery)
		if err != nil {
			g.metrics.backendErrors.Add(1)
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		switch {
		case resp.StatusCode == http.StatusNotFound:
			resp.Body.Close()
			sawMiss = true
			continue
		case resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable:
			resp.Body.Close()
			g.metrics.backendErrors.Add(1)
			lastErr = errBackendStatus(b.name, resp.StatusCode)
			continue
		case resp.StatusCode != http.StatusOK:
			// Definitive non-stream answer (e.g. 503 while draining):
			// buffer and relay it with its headers, exactly like forward.
			data, _ := io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
			resp.Body.Close()
			relay(w, &attemptResult{status: resp.StatusCode, header: resp.Header, body: data})
			return
		}
		defer resp.Body.Close()
		fl, ok := startSSERelay(w)
		if !ok {
			return
		}
		g.metrics.streams.Add(1)
		relayStream(w, fl, resp.Body)
		return
	}
	if sawMiss && lastErr == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job id"})
		return
	}
	if lastErr == nil {
		lastErr = errNoCandidates
	}
	g.unrouted(w, lastErr, "no replica reachable")
}

// handleFirehose merges every live replica's event firehose into one
// SSE stream. Each replica is read frame-at-a-time (an SSE frame ends
// at a blank line) and frames are written to the client under a mutex,
// so interleaved replicas never corrupt each other's framing. Replica
// streams that drop (replica death, stream timeout) detach silently —
// the client keeps receiving from the survivors, which is exactly the
// failover story the rest of the gateway tells.
//
// Membership is dynamic: a rescan on the health-probe interval attaches
// replicas that joined (or recovered) AFTER the client connected, so
// one firehose subscription survives ring-epoch changes — a replica
// that leases in mid-stream starts contributing events without the
// client reconnecting.
func (g *Gateway) handleFirehose(w http.ResponseWriter, r *http.Request) {
	g.metrics.requests.Add(1)
	ctx, cancel := g.streamContext(r.Context())
	defer cancel()

	type conn struct {
		b    *backend
		resp *http.Response
	}

	// attached tracks which replicas currently have a relay goroutine;
	// a scanner removes itself on exit so a restarted replica (new
	// process, same name) re-attaches on the next rescan.
	var attachMu sync.Mutex
	attached := make(map[string]bool)
	dial := func(b *backend) (conn, bool) {
		attachMu.Lock()
		if attached[b.name] {
			attachMu.Unlock()
			return conn{}, false
		}
		attached[b.name] = true
		attachMu.Unlock()
		resp, err := b.streamClient(ctx, "/v1/events", r.URL.RawQuery)
		if err != nil || resp.StatusCode != http.StatusOK {
			if err == nil {
				resp.Body.Close()
			}
			g.metrics.backendErrors.Add(1)
			attachMu.Lock()
			delete(attached, b.name)
			attachMu.Unlock()
			return conn{}, false
		}
		return conn{b: b, resp: resp}, true
	}

	fleet := g.snapshotBackends()
	if len(fleet) == 0 {
		// An empty fleet answers like submit and read: 503 + Retry-After
		// while a restarted gateway waits for its members' renewals.
		g.unrouted(w, errNoCandidates, "event stream")
		return
	}
	var conns []conn
	for _, b := range fleet {
		if !b.up.Load() {
			continue
		}
		if c, ok := dial(b); ok {
			conns = append(conns, c)
		}
	}
	if len(conns) == 0 {
		g.metrics.unrouted.Add(1)
		writeJSON(w, http.StatusBadGateway, apiError{Error: "no replica reachable for event stream"})
		return
	}

	fl, ok := startSSERelay(w)
	if !ok {
		for _, c := range conns {
			c.resp.Body.Close()
		}
		return
	}
	g.metrics.streams.Add(1)

	var mu sync.Mutex // serializes whole frames onto the client stream
	var wg sync.WaitGroup
	relayConn := func(c conn) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.resp.Body.Close()
			defer func() {
				attachMu.Lock()
				delete(attached, c.b.name)
				attachMu.Unlock()
			}()
			sc := bufio.NewScanner(c.resp.Body)
			sc.Buffer(make([]byte, 64*1024), 1024*1024)
			var frame strings.Builder
			for sc.Scan() {
				line := sc.Text()
				if line != "" {
					frame.WriteString(line)
					frame.WriteByte('\n')
					continue
				}
				// Blank line: frame complete. Heartbeat comments relay
				// too — they keep the client's connection verified even
				// when the fleet is idle.
				frame.WriteByte('\n')
				mu.Lock()
				_, err := io.WriteString(w, frame.String())
				if err == nil {
					fl.Flush()
				}
				mu.Unlock()
				frame.Reset()
				if err != nil {
					cancel() // client went away: tear down every relay
					return
				}
			}
		}()
	}
	for _, c := range conns {
		relayConn(c)
	}

	// Rescanner: pick up replicas that joined or recovered mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(g.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				for _, b := range g.snapshotBackends() {
					if !b.up.Load() {
						continue
					}
					if c, ok := dial(b); ok {
						relayConn(c)
					}
				}
			}
		}
	}()
	wg.Wait()
}

// errBackendStatus mirrors tryBackend's failover error text for
// streaming attempts.
type backendStatusError struct {
	name   string
	status int
}

func (e backendStatusError) Error() string {
	return "backend " + e.name + ": HTTP " + strconv.Itoa(e.status)
}

func errBackendStatus(name string, status int) error {
	return backendStatusError{name: name, status: status}
}
