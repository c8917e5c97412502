// Package server is the resident auction service behind cmd/dmwd: a
// bounded admission queue with backpressure (admit.go), a worker pool
// that executes jobs via the distributed protocol (internal/dmw) against
// SHARED precomputed group parameters and fixed-base tables (run.go), a
// result store with TTL eviction, in memory or written through to a WAL
// when Config.DataDir is set (store.go, internal/journal and
// docs/DURABILITY.md), and a plain-text metrics surface.
//
// A job's durable state is one jobRecord (record.go). Admission builds
// the first record; a worker's start and its terminal transition apply
// the next; recovery and replica reads rebuild the job from the last.
// Job.apply is the only writer, and each applied record's state picks
// its event, counters and log line (announce).
//
// The paper frames MinWork as "a set of parallel and independent Vickrey
// auctions"; a single dmw.Run already parallelizes the m auctions of one
// job. This package adds the second level — many jobs in flight — and
// makes the two levels compose: with W workers the per-job auction
// parallelism defaults to GOMAXPROCS/W, so a saturated server never
// oversubscribes the machine.
//
// Lifecycle: New -> Start -> (Submit | Get)* -> Shutdown. Shutdown
// drains: queued and in-flight jobs finish, new submissions are
// rejected, and no accepted job is ever dropped.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"dmw/internal/commit"
	"dmw/internal/group"
	"dmw/internal/obs"
	"dmw/internal/replica"
	"dmw/internal/slo"
	"dmw/internal/tenant"
)

// Global admission errors. Both map to HTTP 503 (backpressure): the
// client should retry later, against this replica or another. The
// per-tenant refusals (429) live in rejection.go.
var (
	// ErrQueueFull signals the bounded queue rejected the job.
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining signals the server is shutting down.
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Limits bound admissible job sizes.
type Limits struct {
	// MaxAgents / MaxTasks cap n and m per job; 0 means unlimited.
	MaxAgents int
	MaxTasks  int
}

// Config tunes a Server. The zero value is usable: Demo128 preset, a
// 64-deep queue, 2 workers, 15-minute result retention.
type Config struct {
	// Preset names the published group parameters (default Demo128).
	// Ignored when Params is set.
	Preset string
	// Params optionally supplies explicit parameters (e.g. loaded from a
	// dmwparams file) instead of a preset.
	Params *group.Params
	// ParamsCache, when set, is the path of a warm table artifact
	// (group.SaveTables, written by `dmwparams -tables` or a previous
	// boot). Boot loads the precomputed fixed-base and joint Shamir
	// tables from it instead of rebuilding them, provided the artifact
	// is intact and matches the configured parameters; a missing,
	// corrupted, version-mismatched, or wrong-parameter artifact is
	// logged loudly, the tables are rebuilt from parameters, and the
	// artifact is rewritten for the next boot. /healthz reports
	// table_build_seconds either way.
	ParamsCache string
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// Workers is the job-level concurrency (default 2).
	Workers int
	// AuctionParallelism caps auction-level concurrency inside each job;
	// 0 defaults to max(1, GOMAXPROCS/Workers) so the two levels compose
	// without oversubscription.
	AuctionParallelism int
	// ResultTTL is how long terminal jobs stay queryable (default 15m).
	ResultTTL time.Duration
	// Limits bound admissible job sizes (default 64 agents, 64 tasks).
	Limits Limits
	// Logger receives structured events (HTTP access lines, job
	// lifecycle transitions) with request_id correlation attributes, and
	// — through the printf sink New derives from it (obs.Logf) — every
	// lifecycle line of the server and of the journal and replicator it
	// owns, so those obey -log-format too; nil discards them all.
	Logger *slog.Logger

	// DataDir enables durable persistence: a job's record is written
	// through a CRC-framed WAL (internal/journal) at admission and again
	// at its terminal transition, each before it becomes visible, and
	// New replays the journal so a restart loses no accepted job. Empty (the default) keeps the
	// purely in-memory store.
	DataDir string
	// Fsync is the WAL flush policy: "always" (durable at the ack,
	// slowest), "interval" (default; durable within FsyncInterval), or
	// "never" (page cache only — survives process crashes, not power
	// loss). Ignored without DataDir.
	Fsync string
	// FsyncInterval is the flush period under the interval policy
	// (default 100ms).
	FsyncInterval time.Duration

	// Tenants is the multi-tenant admission policy (the parsed -tenants
	// file; see internal/tenant and docs/TENANCY.md). The zero value
	// applies no policy: every request folds into one unlimited default
	// tenant, dispatch degenerates to FIFO, and the single-tenant
	// server behaves exactly as before tenancy existed.
	Tenants tenant.Config
	// PriceTau overrides the admission-price smoothing constant
	// (default tenant.DefaultPriceTau; tests shrink it to reprice
	// instantly).
	PriceTau time.Duration

	// SLOs are the declared latency objectives (the parsed -slo flag,
	// e.g. "p99<250ms@30d"), evaluated against the job-latency HDR
	// series by an embedded burn-rate engine: multi-window burn gauges
	// on /metrics (dmwd_slo_*) and verdicts on /healthz. Empty means no
	// SLOs — the engine is not created. See internal/slo.
	SLOs []slo.Objective
	// SLOSampleInterval is the burn-rate engine's snapshot period
	// (default 15s; tests shrink it so windows populate quickly).
	SLOSampleInterval time.Duration
	// SlowThreshold enables capture-on-slow: an untraced job whose
	// queue wait exceeds the threshold gets span recording force-
	// enabled for its remaining phases, so the tail that was too slow
	// to wait for a re-submission with trace:true still yields a
	// fetchable trace. Zero disables.
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Preset == "" {
		c.Preset = group.PresetDemo128
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.AuctionParallelism <= 0 {
		c.AuctionParallelism = runtime.GOMAXPROCS(0) / c.Workers
		if c.AuctionParallelism < 1 {
			c.AuctionParallelism = 1
		}
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.Limits.MaxAgents == 0 {
		c.Limits.MaxAgents = 64
	}
	if c.Limits.MaxTasks == 0 {
		c.Limits.MaxTasks = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SLOSampleInterval <= 0 {
		c.SLOSampleInterval = 15 * time.Second
	}
	return c
}

// Server is the resident auction service.
type Server struct {
	cfg    Config
	params *group.Params
	grp    *group.Group
	// verifier coalesces share verifications across every concurrent
	// job on grp into combined random-linear-combination passes; the
	// observe hook feeds dmwd_verify_batch_size.
	verifier *commit.Coalescer
	// paramsCacheLoaded records whether boot loaded the warm table
	// artifact (vs building tables); grp.TableBuildTime() has the cost.
	paramsCacheLoaded bool

	// logf is the printf sink derived from cfg.Logger (a no-op when none
	// was configured). Nothing on the per-job success path calls it:
	// janitor, segment retirement, recovery and failure lines only.
	logf func(format string, args ...any)

	queue   *tenant.Queue[*Job]
	store   *store
	metrics *metrics
	// sloEngine computes multi-window burn rates over the job-latency
	// HDR series; nil when no SLOs are declared (all methods nil-safe).
	sloEngine *slo.Engine

	// registry resolves tenant identities to their admission state;
	// hub fans job-lifecycle events out to SSE streams; price is the
	// demand-priced admission meter; drainRate estimates completions
	// per second for derived Retry-After values.
	registry  *tenant.Registry
	hub       *tenant.Hub
	price     *tenant.Meter
	drainRate *tenant.RateEstimator

	// replicaID identifies this server instance to load balancers: it
	// is persisted in the data dir when durable (stable across restarts
	// on the same state) and random otherwise, so a gateway can detect
	// a different backend appearing behind a reused address.
	replicaID string

	// repl places and pushes terminal-record copies onto ring successors;
	// replStore guards the copies this node holds for its predecessors.
	// Both exist unconditionally (inert without a fleet view), so a
	// static single-node server pays only two nil-checks per job.
	repl      *replica.Replicator
	replStore *replica.Store

	// replayedJobs / recoveries describe the recovery
	// New performed (zero for a fresh or in-memory server).
	replayedJobs int
	recoveries   int

	// mu guards draining and the queue-close handshake, and orders a
	// job's admitted announcement before its running one (runJob).
	mu       sync.Mutex
	draining bool
	started  bool

	workersWG  sync.WaitGroup
	janitorWG  sync.WaitGroup
	stopSweeps chan struct{}
	closeStore sync.Once

	startTime time.Time
}

// New builds a Server, resolving and validating the group parameters
// once: preset-backed servers share the package-level table cache
// (group.SharedFor), explicit parameters get a private group.
func New(cfg Config) (*Server, error) {
	logf := obs.Logf(cfg.Logger) // before the discard-logger default: no logger, no formatting
	cfg = cfg.withDefaults()
	var (
		params      *group.Params
		grp         *group.Group
		err         error
		cacheLoaded bool
	)
	if cfg.Params != nil {
		params = cfg.Params
	} else {
		params, err = group.ParamsFor(cfg.Preset)
	}
	if err != nil {
		return nil, fmt.Errorf("server: resolving group parameters: %w", err)
	}
	if cfg.ParamsCache != "" {
		grp, cacheLoaded = loadParamsCache(cfg.ParamsCache, params, logf)
	}
	if grp == nil {
		if cfg.Params != nil {
			grp, err = group.New(params)
		} else {
			grp, err = group.SharedFor(cfg.Preset)
		}
		if err != nil {
			return nil, fmt.Errorf("server: resolving group parameters: %w", err)
		}
		if cfg.ParamsCache != "" {
			saveParamsCache(cfg.ParamsCache, grp, logf)
		}
	}
	s := &Server{
		cfg:        cfg,
		logf:       logf,
		store:      newStore(),
		params:     params,
		grp:        grp,
		metrics:    newMetrics(),
		stopSweeps: make(chan struct{}),
		registry:   tenant.NewRegistry(cfg.Tenants),
		hub:        tenant.NewHub(),
		price:      tenant.NewMeter(cfg.PriceTau),
		drainRate:  tenant.NewRateEstimator(0),
		queue:      tenant.NewQueue[*Job](cfg.QueueDepth),
	}
	s.paramsCacheLoaded = cacheLoaded
	s.sloEngine = slo.NewEngine(cfg.SLOs, s.metrics.latencyHDR.Snapshot)
	s.verifier = commit.NewCoalescer(grp, 0, 0, func(items int) {
		s.metrics.verifyBatch.Observe(float64(items))
	})
	s.replStore = replica.NewStore()
	s.repl = replica.NewReplicator(replica.Config{
		Logf: logf,
		ObservePush: func(seconds float64) {
			s.metrics.replicaPush.Observe(seconds)
		},
		ObserveBatch: func(records int) {
			s.metrics.replicaPushBatch.Observe(float64(records))
		},
	})
	if cfg.DataDir != "" {
		if err := s.openJournal(); err != nil {
			s.repl.Close()
			return nil, err
		}
	}
	s.replicaID, err = loadOrCreateReplicaID(cfg.DataDir)
	if err != nil {
		s.repl.Close()
		if cerr := s.store.Close(); cerr != nil {
			logf("closing store after replica-id failure: %v", cerr)
		}
		return nil, err
	}
	return s, nil
}

// Start launches the worker pool and the TTL janitor. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.startTime = time.Now()
	s.mu.Unlock()

	for w := 0; w < s.cfg.Workers; w++ {
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			for {
				job, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.runJob(job)
			}
		}()
	}

	interval := s.cfg.ResultTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	s.every(interval, func(now time.Time) {
		if n := s.store.Sweep(now); n > 0 {
			s.logf("janitor: evicted %d expired jobs", n)
		}
		s.store.retire()
		if n := s.replStore.Sweep(now); n > 0 {
			s.logf("janitor: evicted %d expired replica copies", n)
		}
	})
	if s.sloEngine != nil {
		// The burn-rate sampler: periodic cumulative snapshots of the
		// job-latency HDR, diffed at query time into 5m/1h/6h windows.
		s.sloEngine.Sample(time.Now())
		s.every(s.cfg.SLOSampleInterval, s.sloEngine.Sample)
	}
	s.logf("server started: preset=%s workers=%d queue=%d auction-parallelism=%d ttl=%s",
		s.cfg.Preset, s.cfg.Workers, s.cfg.QueueDepth, s.cfg.AuctionParallelism, s.cfg.ResultTTL)
}

// every runs fn on each tick of a period ticker until Shutdown begins.
func (s *Server) every(period time.Duration, fn func(now time.Time)) {
	s.janitorWG.Add(1)
	go func() {
		defer s.janitorWG.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				fn(now)
			case <-s.stopSweeps:
				return
			}
		}
	}()
}

// Get looks a job up by ID.
func (s *Server) Get(id string) (*Job, bool) {
	return s.store.Get(id, time.Now())
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SLOVerdicts reports the current objective verdicts (nil without SLOs);
// the HTTP layer embeds them in /healthz.
func (s *Server) SLOVerdicts() []slo.Verdict {
	return s.sloEngine.Verdicts(time.Now())
}

// Shutdown drains the server: no new jobs are admitted, queued and
// in-flight jobs run to completion, then the workers and janitor exit.
// It returns ctx.Err() if the context expires first (jobs still finish
// in the background; they are never dropped). Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close() // already-queued jobs stay poppable; pushes fail
		select {
		case <-s.stopSweeps:
		default:
			close(s.stopSweeps)
		}
		s.logf("shutdown: draining %d queued jobs", s.queue.Len())
	}
	started := s.started
	s.mu.Unlock()

	release := func() {
		s.repl.Close()
		s.closeStore.Do(func() {
			if err := s.store.Close(); err != nil {
				s.logf("shutdown: closing store: %v", err)
			}
		})
	}
	if !started {
		// Never-started server: nothing to drain, but the store (and
		// its WAL) must still be released.
		release()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		s.janitorWG.Wait()
		// Drain complete: every accepted job is terminal. Hand the
		// records this node holds to the surviving ring (the lease is
		// still held, so placement excludes only self), then seal the
		// store.
		s.handoffReplicas()
		release()
		close(done)
	}()
	select {
	case <-done:
		s.logf("shutdown: drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
