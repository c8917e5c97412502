// Package server is the resident auction service behind cmd/dmwd: a
// bounded admission queue with backpressure, a worker pool that executes
// jobs via the distributed protocol (internal/dmw) against SHARED
// precomputed group parameters and fixed-base tables, a result store
// with TTL eviction (in-memory by default; write-through to a WAL when
// Config.DataDir is set — see store.go, internal/journal and
// docs/DURABILITY.md), and a plain-text metrics surface.
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
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	protocol "dmw/internal/dmw"
	"dmw/internal/group"
	"dmw/internal/journal"
	"dmw/internal/mechanism"
	"dmw/internal/obs"
	"dmw/internal/replica"
	"dmw/internal/sched"
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

	// replayedJobs / recoveries / tailTruncated describe the recovery
	// New performed (zero for a fresh or in-memory server).
	replayedJobs int
	recoveries   int

	mu       sync.Mutex // guards draining and the queue-close handshake
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

// loadParamsCache attempts the warm-boot path: load precomputed tables
// from the artifact at path and use them iff they were built for
// exactly the configured parameters. Every failure mode — missing
// file, corruption, version mismatch, wrong parameters — logs loudly
// and returns (nil, false) so the caller rebuilds from parameters; a
// quiet wrong answer is never an option here.
func loadParamsCache(path string, want *group.Params, logf func(string, ...any)) (*group.Group, bool) {
	f, err := os.Open(path)
	if err != nil {
		logf("params-cache: %v; building tables from parameters", err)
		return nil, false
	}
	defer f.Close()
	g, err := group.LoadTables(f)
	if err != nil {
		logf("params-cache: %s unusable (%v); building tables from parameters", path, err)
		return nil, false
	}
	if !g.Params().Equal(want) {
		logf("params-cache: %s was built for different parameters; building tables from configured parameters", path)
		return nil, false
	}
	logf("params-cache: loaded precomputed tables from %s in %s", path, g.TableBuildTime())
	return g, true
}

// saveParamsCache writes grp's tables to path (atomically, via a
// same-directory temp file) so the NEXT boot takes the warm path.
// Best-effort: failure is logged, not fatal.
func saveParamsCache(path string, grp *group.Group, logf func(string, ...any)) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".params-cache-*")
	if err != nil {
		logf("params-cache: not writing %s: %v", path, err)
		return
	}
	defer os.Remove(tmp.Name())
	if err := group.SaveTables(tmp, grp); err == nil {
		err = tmp.Sync()
	} else {
		logf("params-cache: serializing tables: %v", err)
		tmp.Close()
		return
	}
	if cerr := tmp.Close(); cerr != nil {
		logf("params-cache: writing %s: %v", path, cerr)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		logf("params-cache: installing %s: %v", path, err)
		return
	}
	logf("params-cache: wrote precomputed tables to %s (table build took %s)", path, grp.TableBuildTime())
}

// loadOrCreateReplicaID resolves the instance identity surfaced by
// /healthz. With a data dir the ID lives in <dir>/replica_id and is
// STABLE across restarts — a gateway seeing the same address answer
// with a different replica_id knows the backend (and its WAL history)
// was swapped, not restarted. Without a data dir every process start
// draws a fresh random ID.
func loadOrCreateReplicaID(dataDir string) (string, error) {
	fresh, err := newReplicaID()
	if err != nil {
		return "", err
	}
	if dataDir == "" {
		return fresh, nil
	}
	path := filepath.Join(dataDir, "replica_id")
	if raw, err := os.ReadFile(path); err == nil {
		if id := strings.TrimSpace(string(raw)); id != "" {
			return id, nil
		}
	}
	if err := os.WriteFile(path, []byte(fresh+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("server: persisting replica id: %w", err)
	}
	return fresh, nil
}

// ReplicaID returns this instance's identity (see loadOrCreateReplicaID).
func (s *Server) ReplicaID() string { return s.replicaID }

// openJournal opens the WAL in cfg.DataDir, replays prior state into
// the in-memory index and re-enqueues jobs that were queued or running
// at crash time. It writes nothing: the replayed segments stay until
// the janitor retires them (store.retire).
func (s *Server) openJournal() error {
	cfg := s.cfg
	pol, err := journal.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	jnl, rec, err := journal.Open(journal.Options{
		Dir:          cfg.DataDir,
		Sync:         pol,
		SyncInterval: cfg.FsyncInterval,
		Logf:         s.logf,
	})
	if err != nil {
		return fmt.Errorf("server: opening journal: %w", err)
	}
	requeue, restored, expired, skipped := s.store.open(jnl, rec.Entries, s.logf, time.Now())

	// The queue must hold every re-enqueued job even if it exceeds the
	// configured depth — accepted work is never shed (ForcePush skips
	// the capacity bound), and each recovered job re-takes its tenant's
	// quota slot unconditionally (it was already accepted once).
	for _, job := range requeue {
		tn := s.registry.Get(job.Spec.Tenant)
		tn.ForceReserve()
		if err := s.queue.ForcePush(tn.ID, tn.Limits.Weight, job); err != nil {
			return fmt.Errorf("server: re-enqueueing job %s: %w", job.ID, err)
		}
	}

	if rec.Recovered {
		s.recoveries = 1
		s.replayedJobs = restored + len(requeue)
		s.logf("recovery: replayed %d jobs from %s (%d results restored, %d re-enqueued, %d expired, %d records skipped)%s",
			s.replayedJobs, cfg.DataDir, restored, len(requeue), expired, skipped,
			map[bool]string{true: "; torn log tail truncated", false: ""}[rec.TailTruncated])
	} else {
		s.logf("journal: initialized %s (fsync=%s)", cfg.DataDir, pol)
	}
	return nil
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
		go func(w int) {
			defer s.workersWG.Done()
			for {
				job, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.runJob(job)
			}
		}(w)
	}

	interval := s.cfg.ResultTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	s.janitorWG.Add(1)
	go func() {
		defer s.janitorWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				if n := s.store.Sweep(now); n > 0 {
					s.logf("janitor: evicted %d expired jobs", n)
				}
				s.store.retire()
				if n := s.replStore.Sweep(now); n > 0 {
					s.logf("janitor: evicted %d expired replica copies", n)
				}
			case <-s.stopSweeps:
				return
			}
		}
	}()

	if s.sloEngine != nil {
		// The burn-rate sampler: periodic cumulative snapshots of the
		// job-latency HDR, diffed at query time into 5m/1h/6h windows.
		s.sloEngine.Sample(time.Now())
		s.janitorWG.Add(1)
		go func() {
			defer s.janitorWG.Done()
			t := time.NewTicker(s.cfg.SLOSampleInterval)
			defer t.Stop()
			for {
				select {
				case now := <-t.C:
					s.sloEngine.Sample(now)
				case <-s.stopSweeps:
					return
				}
			}
		}()
	}
	s.logf("server started: preset=%s workers=%d queue=%d auction-parallelism=%d ttl=%s",
		s.cfg.Preset, s.cfg.Workers, s.cfg.QueueDepth, s.cfg.AuctionParallelism, s.cfg.ResultTTL)
}

// Submit validates and admits a job: a batch of one through admitBatch.
// On success the returned job is queued. When admission fails with
// ErrQueueFull or ErrDraining the job record is still created (state
// rejected) and queryable, so the caller learns an ID either way; spec
// errors return (nil, error) wrapping ErrInvalidSpec, per-tenant
// refusals (nil, *Rejection). With a journal-backed store the admission
// record is durable before Submit returns — durability before
// acknowledgment.
//
// Client-supplied IDs make submission idempotent: re-submitting an ID
// the server already holds in a non-rejected state returns the
// existing job instead of admitting a duplicate — the contract gateway
// retries rely on. A held REJECTED record does not dedupe: it is a
// transient backpressure refusal, so the retry re-admits under the
// same ID (replacing the rejection) and the job actually runs. The
// lookup and the insert are one atomic store operation
// (PutBatchIfAbsent), so concurrent same-ID submissions admit exactly
// one job.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	a := s.admitBatch([]JobSpec{spec})[0]
	return a.job, a.err
}

// observePrice folds the current queue pressure (queued / capacity)
// into the demand meter and returns the smoothed admission price. It
// runs on every admission attempt and on every price read, so the
// decay clock never stalls.
func (s *Server) observePrice(now time.Time) float64 {
	return s.price.Observe(float64(s.queue.Len())/float64(s.cfg.QueueDepth), now)
}

// AdmissionPrice reports the current demand price (see docs/TENANCY.md).
func (s *Server) AdmissionPrice() float64 {
	return s.observePrice(time.Now())
}

// drainRetryAfter derives the back-off a refused client should honor:
// the expected time for the current backlog to drain at the observed
// completion rate (clamped to [1s, 60s] by tenant.RetryAfter).
func (s *Server) drainRetryAfter(now time.Time) time.Duration {
	return tenant.RetryAfter(s.queue.Len(), s.drainRate.Rate(now), s.cfg.Workers)
}

// publish stamps ev with the hub sequence, fans it out to subscribers,
// and (when job is non-nil) appends it to the job's replay history. The
// append happens inside the publish, under the hub lock: handleJobEvents
// subscribes and then replays, and must never find an event in neither
// place (see tenant.Hub.PublishRecorded).
func (s *Server) publish(job *Job, ev tenant.Event) {
	if job == nil {
		s.hub.Publish(ev)
		return
	}
	s.hub.PublishRecorded(ev, job.appendEvent)
}

// throttle runs the per-tenant admission gates in order — token bucket,
// price bid, live-job quota — and on success holds one quota
// reservation (the caller owns releasing it). On refusal it returns the
// Rejection to serve and the reason-labeled metric is already counted.
func (s *Server) throttle(tn *tenant.Tenant, maxPrice float64, now time.Time) *Rejection {
	if ok, wait := tn.TakeToken(now); !ok {
		return &Rejection{Err: ErrRateLimited, Reason: tenant.ReasonRate, Tenant: tn.ID,
			RetryAfter: wait, Price: s.observePrice(now)}
	}
	price := s.observePrice(now)
	if maxPrice > 0 && price > maxPrice {
		return &Rejection{Err: ErrPriceTooLow, Reason: tenant.ReasonPrice, Tenant: tn.ID,
			RetryAfter: s.drainRetryAfter(now), Price: price}
	}
	if !tn.Reserve() {
		return &Rejection{Err: ErrQuotaExceeded, Reason: tenant.ReasonQuota, Tenant: tn.ID,
			RetryAfter: s.drainRetryAfter(now), Price: price}
	}
	return nil
}

// refuse counts and announces one admission refusal and returns it as
// the error to serve. job is nil for a per-tenant refusal: a 429 is
// "your budget, not my capacity", so no job record is created — there
// is nothing for the client to poll and nothing to journal. A global
// (503) refusal names the rejected record it left behind.
func (s *Server) refuse(job *Job, jobID string, rej *Rejection, now time.Time) error {
	s.metrics.rejected.Add(1)
	s.metrics.noteRejected(rej.Tenant, rej.Reason)
	s.publish(job, tenant.Event{Type: tenant.EventRejected, Time: now,
		Tenant: rej.Tenant, JobID: jobID, Reason: rej.Reason, Price: rej.Price})
	return rej
}

// backpressure builds the global (503) refusal of job.
func (s *Server) backpressure(job *Job, sentinel error, reason string, now time.Time) *Rejection {
	return &Rejection{Err: sentinel, Reason: reason, Tenant: job.Spec.Tenant,
		RetryAfter: s.drainRetryAfter(now), Price: s.observePrice(now)}
}

// admission is one spec's outcome of admitBatch. err is nil for an
// accepted or deduped job, wraps ErrInvalidSpec for a bad spec, is a
// *Rejection for a refusal (job set only for the 503 kind, which keeps
// a rejected record), and anything else is a store failure.
type admission struct {
	job *Job
	err error
}

// admitBatch is the one admission pipeline; Submit is a batch of one.
// Each spec runs independently (one bad spec or a momentarily full
// queue never fails its neighbours) through: validation; the
// idempotency fast path, BEFORE the tenant gates so a gateway retry of
// an already-accepted ID is never charged a token; the drain check; the
// per-tenant gates (rate, price, quota — refusals are 429s that create
// no job record); then ONE store write for the whole batch (one WAL
// append batch, so one fsync under the always policy), the bounded
// dispatch queue, and the admitted event. Ordering invariant: the
// admission record reaches the store (and the WAL) BEFORE the job can
// reach a worker, so a job's terminal record always follows its
// admission record in the log.
func (s *Server) admitBatch(specs []JobSpec) []admission {
	now := time.Now()
	out := make([]admission, len(specs))
	draining := s.Draining()
	// fresh are the jobs bound for the store write; held[k] places
	// fresh[k] in specs and carries the quota reservation it holds (nil
	// on the drain path, which takes none).
	type placed struct {
		slot int
		tn   *tenant.Tenant
	}
	fresh := make([]*Job, 0, len(specs))
	held := make([]placed, 0, len(specs))
	var claimed map[string]bool // client IDs taken by earlier specs of this batch
	for i := range specs {
		spec := &specs[i]
		bids, err := spec.materialize(s.cfg.Limits)
		if err != nil {
			s.metrics.rejected.Add(1)
			out[i].err = err
			continue
		}
		if id := spec.ID; id != "" {
			// Only a fast path: PutBatchIfAbsent re-checks atomically at
			// insert time.
			if existing, ok := s.store.Get(id, now); ok && existing.matchesResubmit(now) {
				s.metrics.deduped.Add(1)
				out[i].job = existing
				continue
			}
			if claimed[id] {
				// The store cannot order two admissions of one ID inside
				// one write.
				out[i].err = invalidSpecf("duplicate job id %q within batch", id)
				continue
			}
			if len(specs) > 1 {
				if claimed == nil {
					claimed = make(map[string]bool, len(specs))
				}
				claimed[id] = true
			}
		}
		var tn *tenant.Tenant
		if !draining {
			tn = s.registry.Get(spec.Tenant)
			if rej := s.throttle(tn, spec.MaxPrice, now); rej != nil {
				out[i].err = s.refuse(nil, spec.ID, rej, now)
				continue
			}
			// The quota reservation is held from here: released on every
			// failure path below, and otherwise when the job leaves the
			// live set (runJob).
		}
		job, err := newJob(*spec, bids, now)
		if err != nil {
			if tn != nil {
				tn.Release()
			}
			out[i].err = err
			continue
		}
		if draining {
			// Journal the refusal as one terminal record. The store still
			// arbitrates: an ID naming a live non-rejected job must not be
			// clobbered by the rejection.
			rec := job.terminalRecord(StateRejected, nil, nil, ErrDraining.Error(), now, s.cfg.ResultTTL)
			job.finish(&rec)
		}
		out[i].job = job
		fresh = append(fresh, job)
		held = append(held, placed{i, tn})
	}
	if len(fresh) == 0 {
		return out
	}

	// Durability before visibility. The store resolves same-ID races
	// atomically: slots that lost to a concurrent admission come back as
	// existing jobs and dedupe.
	existing, err := s.store.PutBatchIfAbsent(fresh, now)
	if err != nil && draining {
		s.logf("admit: persisting drain rejection: %v", err)
	}
	for k, job := range fresh {
		a, tn := &out[held[k].slot], held[k].tn
		switch {
		case err != nil && !draining:
			// Cannot make the admission durable: refuse it outright rather
			// than accept work that would be silently lost by a restart.
			tn.Release()
			s.metrics.rejected.Add(1)
			*a = admission{err: err}
		case err == nil && existing[k] != nil:
			// Idempotent re-submission resolved atomically in the store.
			if tn != nil {
				tn.Release()
			}
			s.metrics.deduped.Add(1)
			a.job = existing[k]
		case draining:
			a.err = s.refuse(job, job.ID, s.backpressure(job, ErrDraining, tenant.ReasonDraining, now), now)
		default:
			a.err = s.enqueue(job, tn, now)
		}
	}
	return out
}

// enqueue races a stored job against the bounded dispatch queue. A nil
// return means it is queued and announced; otherwise the job has been
// turned into a rejected record and the *Rejection says why.
func (s *Server) enqueue(job *Job, tn *tenant.Tenant, now time.Time) error {
	s.mu.Lock()
	pushErr := tenant.ErrQueueClosed // Shutdown began after the drain check
	if !s.draining {
		pushErr = s.queue.Push(tn.ID, tn.Limits.Weight, job)
	}
	s.mu.Unlock()
	if pushErr == nil {
		s.metrics.accepted.Add(1)
		s.metrics.noteAdmitted(tn.ID)
		s.publish(job, tenant.Event{Type: tenant.EventAdmitted, Time: now,
			Tenant: tn.ID, JobID: job.ID, Price: s.observePrice(now)})
		return nil
	}
	tn.Release()
	sentinel, reason := ErrQueueFull, tenant.ReasonQueueFull
	if errors.Is(pushErr, tenant.ErrQueueClosed) {
		sentinel, reason = ErrDraining, tenant.ReasonDraining
	}
	rej := s.backpressure(job, sentinel, reason, now)
	s.finishJob(job, StateRejected, nil, nil, rej, now)
	return rej
}

// BatchItem is the per-spec outcome of SubmitBatch, and what POST
// /v1/jobs renders for its batch of one.
type BatchItem struct {
	// Accepted reports whether the job was admitted to the queue.
	Accepted bool `json:"accepted"`
	// Error explains a rejection (invalid spec, queue full, draining).
	Error string `json:"error,omitempty"`
	// Job is the job view; nil for specs that failed validation and for
	// per-tenant refusals (those never get a job record).
	Job *JobView `json:"job,omitempty"`
	// Status is the HTTP status of this item as a single submit
	// (202/400/429/503/500): POST /v1/jobs answers with it, and a batch
	// client reads it per item — the batch envelope is always 200.
	Status int `json:"status,omitempty"`
	// RetryAfterSec and Price carry the per-item refusal guidance for
	// 429/503 items: what a single submit renders into the Retry-After
	// and X-Admission-Price headers.
	RetryAfterSec int     `json:"retry_after_seconds,omitempty"`
	Price         float64 `json:"price,omitempty"`
}

// item is the one mapping from an admission outcome to its HTTP status
// and guidance, shared by the single and batch endpoints.
func (a admission) item() BatchItem {
	var rej *Rejection
	switch {
	case a.err == nil:
		v := a.job.View()
		return BatchItem{Accepted: true, Job: &v, Status: http.StatusAccepted}
	case errors.Is(a.err, ErrInvalidSpec):
		return BatchItem{Error: a.err.Error(), Status: http.StatusBadRequest}
	case errors.As(a.err, &rej):
		it := BatchItem{Error: rej.Error(), Status: http.StatusServiceUnavailable,
			RetryAfterSec: retryAfterSecs(rej.RetryAfter), Price: rej.Price}
		if rej.Throttled() {
			// Per-tenant refusal: no job record (nothing to poll); the
			// caller's budget — not server capacity — is what ran out.
			it.Status = http.StatusTooManyRequests
		} else {
			// Global backpressure: the job record exists (state rejected)
			// so the client sees a consistent view; another replica may
			// have room.
			v := a.job.View()
			it.Job = &v
		}
		return it
	default:
		return BatchItem{Error: a.err.Error(), Status: http.StatusInternalServerError}
	}
}

// SubmitBatch admits each spec independently (per-item accept/reject)
// while amortizing durability: all valid admissions are journaled in ONE
// append batch. Items are positionally aligned with specs.
func (s *Server) SubmitBatch(specs []JobSpec) []BatchItem {
	items := make([]BatchItem, len(specs))
	for i, a := range s.admitBatch(specs) {
		items[i] = a.item()
	}
	return items
}

// Get looks a job up by ID.
func (s *Server) Get(id string) (*Job, bool) {
	return s.store.Get(id, time.Now())
}

// QueueDepth reports the number of queued (not yet running) jobs.
func (s *Server) QueueDepth() int { return s.queue.Len() }

// Tenants exposes the tenant registry (read-mostly; used by the HTTP
// layer and tests).
func (s *Server) Tenants() *tenant.Registry { return s.registry }

// EventHub exposes the job-event fan-out hub.
func (s *Server) EventHub() *tenant.Hub { return s.hub }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Params returns the published parameters (shared; do not mutate).
func (s *Server) Params() *group.Params { return s.params }

// WriteMetrics renders the plain-text metrics exposition.
func (s *Server) WriteMetrics(w io.Writer) {
	s.mu.Lock()
	draining, start := s.draining, s.startTime
	s.mu.Unlock()
	var uptime time.Duration
	if !start.IsZero() {
		uptime = time.Since(start)
	}
	g := snapshotGauges{
		queueDepth:       s.queue.Len(),
		workers:          s.cfg.Workers,
		draining:         draining,
		liveJobs:         s.store.Len(),
		uptime:           uptime,
		replicaID:        s.replicaID,
		admissionPrice:   s.observePrice(time.Now()),
		eventSubscribers: s.hub.Subscribers(),
		eventsPublished:  s.hub.Published(),
		eventsDropped:    s.hub.Dropped(),

		tableBuildSeconds: s.grp.TableBuildTime().Seconds(),
		paramsCacheLoaded: s.paramsCacheLoaded,
	}
	view := s.repl.CurrentView()
	g.fleetEpoch = view.Epoch
	g.fleetPeers = len(view.Peers)
	g.fleetReplication = view.Replication
	g.replicaRecords = s.replStore.Len()
	g.replicaPushes, g.replicaPushErrors, g.replicaDropped = s.repl.Stats()
	if g.journal, g.journalEnabled = s.JournalStats(); g.journalEnabled {
		g.journalReplayed = int64(s.replayedJobs)
		g.journalRecoveries = int64(s.recoveries)
	}
	s.metrics.writeTo(w, g)
	// Per-tenant tail series (same HDR geometry as the global series,
	// so the gateway's fleet scrape merges them exactly); empty tenants
	// are skipped to keep the exposition proportional to actual
	// traffic, not to registry size.
	for _, id := range s.registry.IDs() {
		tn, ok := s.registry.Lookup(id)
		if !ok || tn.Tail.Count() == 0 {
			continue
		}
		tn.Tail.Write(w, "dmwd_tenant_job_latency_seconds", `tenant="`+id+`"`)
	}
	s.sloEngine.WriteMetrics(w, "dmwd", time.Now())
}

// SLOVerdicts reports the current objective verdicts (nil without SLOs);
// the HTTP layer embeds them in /healthz.
func (s *Server) SLOVerdicts() []slo.Verdict {
	return s.sloEngine.Verdicts(time.Now())
}

// JournalStats returns the WAL counters and true when the server is
// journal-backed; (zero, false) for the in-memory store.
func (s *Server) JournalStats() (journal.Stats, bool) {
	if s.store.wal == nil {
		return journal.Stats{}, false
	}
	return s.store.wal.Stats(), true
}

// RecoveryStats reports how many jobs the last Open replayed and
// whether a recovery happened at all (0, 0 for fresh/in-memory runs).
func (s *Server) RecoveryStats() (replayedJobs, recoveries int) {
	return s.replayedJobs, s.recoveries
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

	if !started {
		// Never-started server: nothing to drain, but the store (and
		// its WAL) must still be released.
		s.repl.Close()
		s.closeStore.Do(func() {
			if err := s.store.Close(); err != nil {
				s.logf("shutdown: closing store: %v", err)
			}
		})
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
		s.repl.Close()
		s.closeStore.Do(func() {
			if err := s.store.Close(); err != nil {
				s.logf("shutdown: closing store: %v", err)
			}
		})
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

// runJob executes one job on a worker.
func (s *Server) runJob(job *Job) {
	start := time.Now()
	job.setRunning(start)
	s.metrics.observePhase(PhaseQueueWait, start.Sub(job.submitted))
	// The quota reservation taken at admission is returned when the job
	// leaves the live set, and every completion feeds the drain-rate
	// estimator behind derived Retry-After values.
	defer func() {
		s.registry.Get(job.Spec.Tenant).Release()
		s.drainRate.Tick(time.Now())
	}()
	s.publish(job, tenant.Event{Type: tenant.EventRunning, Time: start,
		Tenant: job.Spec.Tenant, JobID: job.ID})

	// Tracing is per-job opt-in: untraced jobs carry a nil recorder all
	// the way down (nil *obs.Recorder absorbs every call), so the
	// benchmark path records nothing and allocates nothing. Capture-on-
	// slow widens the opt-in: when the queue wait alone already crossed
	// Config.SlowThreshold, the job is in the tail this server's SLOs
	// care about, so span recording is force-enabled for its remaining
	// phases even though the client never asked — the exemplar on
	// /metrics then points at a trace that actually exists.
	slowCapture := !job.Spec.Trace && s.cfg.SlowThreshold > 0 &&
		start.Sub(job.submitted) > s.cfg.SlowThreshold
	var rec *obs.Recorder
	var root *obs.ActiveSpan
	if job.Spec.Trace || slowCapture {
		rec = obs.NewRecorderAt(job.submitted)
		rec.Record(PhaseQueueWait, 0, job.submitted, start)
		attrs := []obs.Attr{
			{Key: "job_id", Value: job.ID},
			{Key: "request_id", Value: job.Spec.RequestID},
		}
		if slowCapture {
			attrs = append(attrs, obs.Attr{Key: "slow_capture", Value: "1"})
			s.metrics.slowCaptures.Add(1)
			s.cfg.Logger.Warn("slow_capture",
				"job_id", job.ID, "request_id", job.Spec.RequestID, "tenant", job.Spec.Tenant,
				"queue_wait_ms", float64(start.Sub(job.submitted))/float64(time.Millisecond),
				"threshold_ms", float64(s.cfg.SlowThreshold)/float64(time.Millisecond))
		}
		root = rec.Start("job", 0, attrs...)
	}

	par := s.cfg.AuctionParallelism
	if job.Spec.Parallelism > 0 && job.Spec.Parallelism < par {
		par = job.Spec.Parallelism
	}
	cfg := protocol.RunConfig{
		Params:      s.params,
		Group:       s.grp,
		Bid:         bidcode.Config{W: job.Spec.W, C: job.Spec.C, N: job.Agents()},
		TrueBids:    job.bids,
		Seed:        job.Spec.Seed,
		Parallelism: par,
		CountOps:    job.Spec.CountOps,
		Record:      job.Spec.Record,
		// The fleet-wide coalescer batches this job's share checks with
		// every other concurrent job's (Run drops it for count_ops jobs
		// to keep per-agent accounting exact).
		Verifier:    s.verifier,
		Trace:       rec,
		TraceParent: root.ID(),
	}
	if job.Spec.LinkDelayMS > 0 {
		cfg.Delays = uniformDelays(job.Agents(), time.Duration(job.Spec.LinkDelayMS*float64(time.Millisecond)))
		cfg.RealTimeDelays = true
	}
	res, err := protocol.Run(cfg)
	now := time.Now()
	s.publish(job, tenant.Event{Type: tenant.EventPhase, Time: now,
		Tenant: job.Spec.Tenant, JobID: job.ID, Phase: PhaseQueueWait,
		DurationMS: float64(start.Sub(job.submitted)) / float64(time.Millisecond)})
	if res != nil {
		for _, p := range res.Phases {
			s.metrics.observePhase(p.Phase, p.Duration)
			s.publish(job, tenant.Event{Type: tenant.EventPhase, Time: now,
				Tenant: job.Spec.Tenant, JobID: job.ID, Phase: p.Phase,
				DurationMS: float64(p.Duration) / float64(time.Millisecond)})
		}
	}
	state, jr, tr := StateFailed, (*JobResult)(nil), (*protocol.Transcript)(nil)
	if err == nil {
		state, jr, tr = StateDone, buildResult(res, matchesCentralized(res, job.bids)), res.Transcript
	}
	root.SetAttr("state", string(state))
	root.End()
	if rec != nil {
		job.setTrace(rec.Spans())
		if err == nil {
			s.metrics.traced.Add(1)
		}
	}
	// Latency is observed before the finish wakes the job's waiters, so
	// a scrape that follows a completed long-poll already counts it.
	s.observeJobLatency(job, rec != nil, now)
	s.finishJob(job, state, jr, tr, err, now)
}

// finishJob is the one terminal transition, for a worker's done or
// failed job (cause is the run error, nil for done) and for the
// queue-full/closed rejection of an admitted one (cause is the
// *Rejection being served). In order: build the terminal record; append
// it to the WAL; only then make the job observable as terminal (done
// closes, long-pollers wake); offer the same bytes to the ring
// successors; count; publish; log. The record is encoded once, and only
// when something consumes the bytes — a WAL or an installed fleet view;
// a bare in-memory server encodes nothing. Only completed and failed
// jobs replicate: a rejected record is a transient backpressure marker,
// not acknowledged work. The offer never blocks the worker: the record
// is already durable locally, so a dropped offer only costs read
// locality until the next handoff.
func (s *Server) finishJob(job *Job, state JobState, jr *JobResult, tr *protocol.Transcript, cause error, now time.Time) {
	var errMsg string
	if cause != nil {
		errMsg = cause.Error()
	}
	rec := job.terminalRecord(state, jr, tr, errMsg, now, s.cfg.ResultTTL)
	replicate := state != StateRejected && s.repl.Ready()
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
	switch state {
	case StateDone:
		s.metrics.completed.Add(1)
		s.metrics.auctions.Add(int64(job.Tasks()))
		s.metrics.groupExp.Add(jr.GroupExp)
		s.metrics.groupMul.Add(jr.GroupMul)
		s.metrics.groupMultiExps.Add(jr.GroupMultiExps)
		s.metrics.groupMultiExpTerms.Add(jr.GroupMultiExpTerms)
		s.publish(job, tenant.Event{Type: tenant.EventDone, Time: now,
			Tenant: job.Spec.Tenant, JobID: job.ID})
		s.cfg.Logger.Info("job done",
			"job_id", job.ID, "request_id", job.Spec.RequestID, "tenant", job.Spec.Tenant,
			"agents", job.Agents(), "tasks", job.Tasks(),
			"matches_centralized", jr.MatchesCentralized,
			"queue_wait_ms", float64(rec.Started.Sub(rec.Submitted))/float64(time.Millisecond),
			"run_ms", float64(now.Sub(rec.Started))/float64(time.Millisecond))
	case StateFailed:
		s.metrics.failed.Add(1)
		s.publish(job, tenant.Event{Type: tenant.EventFailed, Time: now,
			Tenant: job.Spec.Tenant, JobID: job.ID, Error: errMsg})
		s.cfg.Logger.Error("job failed",
			"job_id", job.ID, "request_id", job.Spec.RequestID, "tenant", job.Spec.Tenant,
			"error", errMsg,
			"elapsed_ms", float64(now.Sub(rec.Submitted))/float64(time.Millisecond))
	case StateRejected:
		s.refuse(job, job.ID, cause.(*Rejection), now)
	}
}

// observeJobLatency records one terminal job's end-to-end latency into
// both latency series: the global HDR tier (with an exemplar carrying
// the job's request identity into the tail buckets) and the tenant's
// own tail series.
func (s *Server) observeJobLatency(job *Job, traced bool, now time.Time) {
	d := now.Sub(job.submitted).Seconds()
	s.metrics.latencyHDR.ObserveEx(d, &obs.Exemplar{
		RequestID: job.Spec.RequestID,
		JobID:     job.ID,
		Tenant:    job.Spec.Tenant,
		Traced:    traced,
	})
	s.registry.Get(job.Spec.Tenant).Tail.Observe(d)
}

// uniformDelays builds the n x n one-way latency matrix for
// JobSpec.LinkDelayMS: every off-diagonal link gets d.
func uniformDelays(n int, d time.Duration) [][]time.Duration {
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = d
			}
		}
	}
	return m
}

// matchesCentralized compares the distributed outcome with the
// centralized MinWork reference on the same matrix (Figure 1's
// equivalence check, applied per job).
func matchesCentralized(res *protocol.Result, bids [][]int) bool {
	in := sched.NewInstance(len(bids), len(bids[0]))
	for i, row := range bids {
		for j, v := range row {
			in.Time[i][j] = int64(v)
		}
	}
	ref, err := (mechanism.MinWork{}).Run(in)
	if err != nil {
		return false
	}
	for j, a := range res.Auctions {
		if a.Aborted || a.Winner != ref.Schedule.Agent[j] {
			return false
		}
	}
	return true
}
