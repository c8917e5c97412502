// Package gateway implements dmwgw, a stateless L7 router that fronts
// a fleet of dmwd replicas and presents the same HTTP API surface.
//
// Placement is deterministic: every job is named (client-supplied or
// gateway-generated ID) and hashed onto a consistent-hash ring
// ([dmw/internal/ring]) of backends, so a given job ID always lands on
// the same replica while that replica is healthy. Because dmwd
// submissions are idempotent by ID and job outcomes are deterministic
// in (spec, seed), the gateway can retry a submission against the next
// ring successor on connect errors or server-fault 5xx responses
// (500/502/504) without risking duplicate work — the worst case is a
// duplicate admission on a replica that later also receives the retry,
// which dedupes. A 503 is NOT retried elsewhere: it is dmwd's explicit
// backpressure answer and is relayed (with Retry-After) so the owner —
// which already journaled a rejected record for the ID — stays the
// single source of truth for that job.
//
// The gateway holds no durable state: jobs live in the replicas (and
// their WALs), and restarting it loses none of them. Its soft state is
// the lease table, which is the backend map itself: a static backend is
// a lease that never expires, and leased members renew with every
// gateway they list, so any gateway holds the full ring. A restarted
// gateway has it back after one renewal and, until then, answers 503
// with Retry-After (docs/SCALING.md, "Gateway redundancy"). Reads route
// by the same ring placement, falling through to successors so jobs
// submitted during a failover window remain findable.
package gateway

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmw/internal/membership"
	"dmw/internal/obs"
	"dmw/internal/ring"
	"dmw/internal/slo"
)

// Backend names one dmwd replica.
type Backend struct {
	// Name is the stable ring identity; placement follows the name, not
	// the address, so moving a replica to a new port does not reshuffle
	// the keyspace.
	Name string
	// URL is the base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Weight scales the share of the keyspace (default 1).
	Weight int
}

// Config configures New.
type Config struct {
	// Backends is the static replica fleet: leases that never expire. It
	// may be empty: the fleet then forms entirely from membership leases
	// (see internal/membership), and the gateway answers 503 with
	// Retry-After until the first replica leases in — 502 once it has
	// been up for a LeaseTTL with still no member.
	Backends []Backend
	// LeaseTTL is the lifetime of membership leases this gateway issues
	// (default membership.DefaultTTL). Expired leases are swept on the
	// health-probe tick, so the effective removal latency is
	// LeaseTTL + HealthInterval.
	LeaseTTL time.Duration
	// Replication is the results replication factor R advertised in
	// lease grants: a terminal job record lives on its owner plus R-1
	// ring successors (default 2).
	Replication int
	// VirtualNodes per unit weight on the ring (default
	// ring.DefaultVirtualNodes).
	VirtualNodes int
	// MaxInFlight bounds concurrent proxied requests per backend
	// (default 256). Excess requests wait; the bound keeps one slow
	// replica from absorbing every gateway goroutine.
	MaxInFlight int
	// HealthInterval is the active /healthz probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 2s).
	HealthTimeout time.Duration
	// FailAfter consecutive probe failures eject a backend from the
	// ring (default 2); RecoverAfter consecutive successes re-admit it
	// (default 2).
	FailAfter    int
	RecoverAfter int
	// RequestTimeout bounds one proxied attempt, excluding any ?wait
	// long-poll allowance added on top (default 60s).
	RequestTimeout time.Duration
	// StreamTimeout bounds one relayed SSE stream (job event streams and
	// the fleet firehose). Streams are long-lived by design, so the
	// default is generous (15m); 0 takes the default, negative disables
	// the bound entirely.
	StreamTimeout time.Duration
	// SLOs are latency objectives evaluated against the fleet-merged
	// backend request histogram (dmwgw_fleet_request_seconds). Empty
	// disables the burn-rate engine.
	SLOs []slo.Objective
	// SLOSampleInterval is the burn-rate sampling period (default 15s).
	// Samples ride the health-probe goroutine.
	SLOSampleInterval time.Duration
	// SlowThreshold, when positive, marks any proxied attempt slower
	// than it with a structured slow_request log line (request_id,
	// backend, elapsed) and the dmwgw_slow_requests_total counter.
	SlowThreshold time.Duration
	// Logger receives structured logs (access lines, failover hops,
	// scrape failures), each carrying the request's correlation ID where
	// one applies, and — through the printf sink New derives from it
	// (obs.Logf) — the membership and health lifecycle lines. Nil
	// discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = ring.DefaultVirtualNodes
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.StreamTimeout == 0 {
		c.StreamTimeout = 15 * time.Minute
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = membership.DefaultTTL
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.SLOSampleInterval <= 0 {
		c.SLOSampleInterval = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// backend is the runtime state for one replica.
type backend struct {
	name string
	// base is the replica address; atomic so a lease renewal can
	// re-point a backend (replica moved hosts/ports) under live traffic.
	// The ring identity is the name, so re-pointing never reshuffles
	// placement.
	base atomic.Pointer[url.URL]
	// weight is the ring share; atomic because a lease renewal may
	// change it while /healthz, grants and the prober read it.
	weight atomic.Int32
	client *http.Client
	// sem bounds in-flight proxied requests to this replica.
	sem chan struct{}
	// reqHist observes proxied-attempt wall time against this replica
	// (dmwgw_backend_request_seconds{backend=...}); errors observe too —
	// a replica that fails slowly is exactly what the histogram is for.
	// The HDR tier keeps ~5% relative error from microseconds to
	// minutes and carries tail exemplars (request IDs), and its shared
	// bucket geometry lets handleMetrics merge replicas exactly into
	// the fleet rollup.
	reqHist *obs.HDR

	// expires is the lease deadline, guarded by Gateway.bmu; the zero
	// value never expires, which is what a static backend is.
	expires time.Time

	// wireSeen latches the first answer from this replica that carried
	// the X-DMW-Wire capability header; it only feeds the
	// dmwgw_wire_negotiated_total count, no behaviour hangs on it.
	wireSeen atomic.Bool

	// up is the ring-membership view of health. Backends start up;
	// the prober ejects after FailAfter consecutive failures.
	up atomic.Bool

	mu        sync.Mutex
	fails     int    // consecutive probe failures
	oks       int    // consecutive probe successes while ejected
	replicaID string // last /healthz identity seen
}

// acquire takes an in-flight slot, honoring ctx.
func (b *backend) acquire(ctx context.Context) error {
	select {
	case b.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *backend) release() { <-b.sem }

// Gateway routes the dmwd HTTP API across a replica fleet.
type Gateway struct {
	cfg Config
	// logf is the printf sink derived from cfg.Logger (a no-op when none
	// was configured): membership and health transitions only.
	logf func(format string, args ...any)
	ring *ring.Ring

	// bmu guards backends (the lease table: each backend carries its
	// deadline) and order, and serializes every change to them with the
	// matching ring and epoch change — acquire, release, the expiry sweep
	// and prober eject/readmit each run as one critical section. Readers
	// take snapshots (snapshotBackends) rather than holding the lock
	// across network I/O.
	bmu      sync.RWMutex
	backends map[string]*backend // by name
	order    []string            // join order, for stable /healthz output

	// epoch numbers ring rebuilds: every membership change (lease
	// join/release/expiry, prober eject/readmit) increments it. Grants
	// and /metrics expose it so operators and replicas can watch a
	// resize converge.
	epoch atomic.Uint64

	metrics gwMetrics
	// sloEngine computes multi-window burn rates over the fleet-merged
	// backend latency series; nil when Config.SLOs is empty (every
	// method on a nil engine is a no-op).
	sloEngine *slo.Engine
	// lastSLOSample is the healthLoop's sample clock; touched only by
	// that goroutine.
	lastSLOSample time.Time
	// relayBufs is the pooled arena backing buffered response bodies
	// (see pool.go).
	relayBufs *relayPool
	start     time.Time
	// instanceID identifies this gateway process in dmwgw_build_info and
	// structured logs; random per boot (the gateway is stateless, so a
	// restart genuinely is a new instance).
	instanceID string

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a gateway over cfg.Backends and starts the health prober.
// Call Close to stop it.
func New(cfg Config) (*Gateway, error) {
	logf := obs.Logf(cfg.Logger) // before the discard-logger default: no logger, no formatting
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:        cfg,
		logf:       logf,
		ring:       ring.New(cfg.VirtualNodes),
		backends:   make(map[string]*backend, len(cfg.Backends)),
		relayBufs:  newRelayPool(),
		start:      time.Now(),
		stop:       make(chan struct{}),
		instanceID: newJobID(),
	}
	for _, bc := range cfg.Backends {
		if bc.Name == "" {
			return nil, errors.New("gateway: backend with empty name")
		}
		if _, dup := g.backends[bc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend name %q", bc.Name)
		}
		u, err := url.Parse(bc.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("gateway: backend %q: invalid URL %q", bc.Name, bc.URL)
		}
		g.admit(bc.Name, u, bc.Weight, time.Time{})
	}
	// Epoch 1 is "the ring as configured at boot"; every later
	// membership change increments.
	g.epoch.Store(1)
	g.sloEngine = slo.NewEngine(cfg.SLOs, g.fleetLatencySnapshot)
	g.sloEngine.Sample(time.Now())
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// fleetLatencySnapshot merges every backend's request-latency HDR into
// one fleet-wide snapshot. The merge is exact — all backend histograms
// share the default HDR bucket geometry — so fleet quantiles carry the
// same ~5% relative-error bound as any single replica's.
func (g *Gateway) fleetLatencySnapshot() obs.HDRSnapshot {
	var s obs.HDRSnapshot
	for _, b := range g.snapshotBackends() {
		s = s.Add(b.reqHist.Snapshot())
	}
	return s
}

// newBackend builds the runtime state for one replica; admit places it
// in the fleet.
func (g *Gateway) newBackend(name string, u *url.URL, weight int) *backend {
	b := &backend{
		name:    name,
		sem:     make(chan struct{}, g.cfg.MaxInFlight),
		reqHist: obs.NewHDR(),
		client: &http.Client{
			// Keep-alive pool sized for the in-flight bound: every
			// concurrent request can park its connection instead of
			// re-dialing, which is where gateway throughput lives.
			Transport: &http.Transport{
				MaxIdleConns:        g.cfg.MaxInFlight,
				MaxIdleConnsPerHost: g.cfg.MaxInFlight,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	b.base.Store(u)
	b.weight.Store(int32(weight))
	b.up.Store(true)
	return b
}

// Close stops the health prober and closes idle connections.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	for _, b := range g.snapshotBackends() {
		b.client.CloseIdleConnections()
	}
}

// RingEpoch reports the current ring epoch (see Gateway.epoch).
func (g *Gateway) RingEpoch() uint64 { return g.epoch.Load() }

// snapshotBackends returns the fleet in join order. The slice is fresh;
// the *backend values are shared live state.
func (g *Gateway) snapshotBackends() []*backend {
	g.bmu.RLock()
	defer g.bmu.RUnlock()
	out := make([]*backend, 0, len(g.order))
	for _, name := range g.order {
		out = append(out, g.backends[name])
	}
	return out
}

// candidates returns the failover order for key: the ring owner first,
// then its distinct successors. Ejected backends are already off the
// ring; if every backend is ejected, fall back to the full fleet (a
// best-effort attempt beats a guaranteed 503). With an empty fleet
// (before the first lease) the list is empty and callers answer
// through unrouted.
func (g *Gateway) candidates(key string) []*backend {
	names := g.ring.Successors(key, 0)
	g.bmu.RLock()
	defer g.bmu.RUnlock()
	if len(names) == 0 {
		names = g.order
	}
	out := make([]*backend, 0, len(names))
	for _, n := range names {
		if b, ok := g.backends[n]; ok {
			out = append(out, b)
		}
	}
	return out
}

// newJobID names a gateway-generated job. IDs are what make retries
// idempotent, so every submission gets one even when the client did
// not care to choose.
func newJobID() string {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failure on Linux means the process is doomed
		// anyway; degrade to a time-derived ID rather than panic.
		return fmt.Sprintf("gw-t%x", time.Now().UnixNano())
	}
	return "gw-" + hex.EncodeToString(buf[:])
}

// joinPath resolves path+query against the backend base URL.
func (b *backend) joinPath(path, rawQuery string) string {
	u := *b.base.Load()
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = rawQuery
	return u.String()
}
