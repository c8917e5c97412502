package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	protocol "dmw/internal/dmw"
	"dmw/internal/journal"
	"dmw/internal/obs"
)

// phaseBucketsS are the upper bounds (seconds) of the replication-push
// histogram. (The per-phase series they used to back moved to the HDR
// tier, which resolves the same range at ~5% relative error.)
var phaseBucketsS = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// pushBatchBuckets are the upper bounds (records per POST) of the
// replica-tier batching histograms: how many records one replication
// RPC absorbed, on the push side (dmwd_replica_push_batch_size) and
// the accept side (dmwd_replica_accept_batch_size).
var pushBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// PhaseQueueWait is the server-side segment preceding the protocol
// phases: admission to worker pickup. Together with dmw.PhaseNames it
// makes the dmwd_phase_seconds series sum to (approximately — modulo
// the store write between pickup and run) the end-to-end job latency.
const PhaseQueueWait = "queue_wait"

// phaseOrder fixes the exposition order of dmwd_phase_seconds.
var phaseOrder = append([]string{PhaseQueueWait}, protocol.PhaseNames...)

// metrics holds the process-lifetime counters exported by GET /metrics.
// All fields are atomics (or internally-atomic histograms): the worker
// pool and the HTTP handlers touch them concurrently.
type metrics struct {
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	// deduped counts idempotent re-submissions resolved to an existing
	// job (client-supplied IDs; gateway failover retries land here).
	deduped atomic.Int64
	// auctions counts individual task auctions across completed jobs
	// ("total auctions run").
	auctions atomic.Int64
	// traced counts jobs that recorded a protocol trace.
	traced atomic.Int64
	// groupExp / groupMul / groupMultiExps / groupMultiExpTerms
	// accumulate the per-agent group-operation counters of completed
	// count_ops jobs: single exponentiations, modular multiplications,
	// calls into the batched multi-exponentiation engine, and the total
	// terms those calls absorbed. Terms/calls is the average batch width
	// the hot path achieved; jobs without count_ops contribute nothing
	// (counting is only attached when the spec asks for it).
	groupExp           atomic.Uint64
	groupMul           atomic.Uint64
	groupMultiExps     atomic.Uint64
	groupMultiExpTerms atomic.Uint64

	// latencyHDR is the end-to-end job latency series in seconds
	// (dmwd_job_latency_seconds_*): log-spaced HDR buckets with per-
	// bucket exemplars, so a p999 outlier on /metrics carries the
	// X-Request-Id and job ID needed to fetch its trace. This series
	// also feeds the SLO burn-rate engine.
	latencyHDR *obs.HDR
	// phases holds one seconds-denominated HDR histogram per phase
	// segment of phaseOrder (dmwd_phase_seconds{phase=...}): phase
	// durations span µs (queue pickup on an idle box) to seconds
	// (crypto-bound shapes), exactly the range fixed buckets resolve
	// poorly.
	phases map[string]*obs.HDR
	// slowCaptures counts capture-on-slow activations: untraced jobs
	// whose queue wait crossed Config.SlowThreshold and had span
	// recording force-enabled for their remaining phases
	// (dmwd_slow_captures_total).
	slowCaptures atomic.Int64

	// replicaAccepted counts terminal-record copies stored for ring
	// predecessors; replicaReads counts reads served from those copies
	// after the primary store missed. replicaPush observes one
	// replication POST's wall time (dmwd_replica_push_seconds_*);
	// replicaPushBatch / replicaAcceptBatch observe how many records
	// each replication RPC carried on the way out and in.
	replicaAccepted    atomic.Int64
	replicaReads       atomic.Int64
	replicaPush        *obs.HDR
	replicaPushBatch   *obs.HDR
	replicaAcceptBatch *obs.HDR

	// wireRequests counts frame-encoded requests served on the fleet
	// endpoints; wireErrors counts frame bodies refused as corrupt or
	// truncated (each one answered with a loud 400, never fed to the
	// JSON decoder).
	wireRequests atomic.Int64
	wireErrors   atomic.Int64

	// tenantMu guards the per-tenant label maps below. Cardinality is
	// bounded by the registry (tenant.CleanID folding plus the dynamic-
	// table cap), so these maps cannot grow without bound.
	tenantMu sync.Mutex
	// tenantAdmitted counts dmwd_tenant_admitted_total{tenant=...}.
	tenantAdmitted map[string]int64
	// tenantRejected counts dmwd_tenant_rejected_total{tenant=...,
	// reason=...} (reasons: rate | quota | queue_full | draining).
	tenantRejected map[string]map[string]int64
}

// newMetrics builds the metric set with its histograms registered.
func newMetrics() *metrics {
	m := &metrics{
		latencyHDR:         obs.NewHDR(),
		phases:             make(map[string]*obs.HDR, len(phaseOrder)),
		replicaPush:        obs.NewHDRBounds(phaseBucketsS),
		replicaPushBatch:   obs.NewHDRBounds(pushBatchBuckets),
		replicaAcceptBatch: obs.NewHDRBounds(pushBatchBuckets),
		tenantAdmitted:     make(map[string]int64),
		tenantRejected:     make(map[string]map[string]int64),
	}
	for _, name := range phaseOrder {
		m.phases[name] = obs.NewHDR()
	}
	return m
}

// observePhase records one phase segment's duration. Unknown phase
// names are dropped rather than panicking — the protocol may grow
// segments faster than the exposition.
func (m *metrics) observePhase(phase string, d time.Duration) {
	if h := m.phases[phase]; h != nil {
		h.Observe(d.Seconds())
	}
}

// noteAdmitted counts one admission under the tenant's label.
func (m *metrics) noteAdmitted(tenantID string) {
	m.tenantMu.Lock()
	m.tenantAdmitted[tenantID]++
	m.tenantMu.Unlock()
}

// noteRejected counts one refusal: in the total, and under the
// tenant's label and the gate's reason.
func (m *metrics) noteRejected(tenantID, reason string) {
	m.rejected.Add(1)
	m.tenantMu.Lock()
	byReason := m.tenantRejected[tenantID]
	if byReason == nil {
		byReason = make(map[string]int64)
		m.tenantRejected[tenantID] = byReason
	}
	byReason[reason]++
	m.tenantMu.Unlock()
}

// snapshotGauges are the point-in-time values the server contributes to
// the exposition alongside the monotonic counters.
type snapshotGauges struct {
	queueDepth int
	workers    int
	draining   bool
	liveJobs   int
	uptime     time.Duration
	replicaID  string

	// The event-hub trio covers the SSE layer.
	eventSubscribers int
	eventsPublished  uint64
	eventsDropped    uint64

	// tableBuildSeconds is the boot-time cost of building the group's
	// fixed-base/joint tables (dmwd_table_build_seconds).
	tableBuildSeconds float64

	// fleet*/replica* describe the replicated results tier: the lease-
	// grant epoch the replicator last placed against (0 = no fleet view,
	// static deployment), the peer count and factor of that view, held
	// copy count, and the push outcome counters.
	fleetEpoch        uint64
	fleetPeers        int
	fleetReplication  int
	replicaRecords    int
	replicaPushes     int64
	replicaPushErrors int64
	replicaDropped    int64

	// journal* carry the WAL counters when the store is journal-backed
	// (journalEnabled); the exposition emits dmwd_journal_enabled either
	// way so dashboards can key on the mode.
	journalEnabled    bool
	journal           journal.Stats
	journalReplayed   int64
	journalRecoveries int64
}

// writeTenants renders the per-tenant labeled counters in sorted label
// order (stable output; the gateway's fleet scrape sums identical
// series across replicas).
func (m *metrics) writeTenants(w io.Writer) {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	ids := make([]string, 0, len(m.tenantAdmitted))
	for id := range m.tenantAdmitted {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "dmwd_tenant_admitted_total{tenant=%q} %d\n", id, m.tenantAdmitted[id])
	}
	ids = ids[:0]
	for id := range m.tenantRejected {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		byReason := m.tenantRejected[id]
		reasons := make([]string, 0, len(byReason))
		for r := range byReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(w, "dmwd_tenant_rejected_total{tenant=%q,reason=%q} %d\n", id, r, byReason[r])
		}
	}
}

// writeTo renders the plain-text exposition (Prometheus-compatible
// counter/gauge/histogram syntax, but consumable with grep and awk).
func (m *metrics) writeTo(w io.Writer, g snapshotGauges) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# dmwd plain-text metrics; counters are monotonic since process start\n")
	obs.WriteBuildInfo(w, "dmwd", g.replicaID)
	p("dmwd_jobs_accepted_total %d\n", m.accepted.Load())
	p("dmwd_jobs_rejected_total %d\n", m.rejected.Load())
	p("dmwd_jobs_completed_total %d\n", m.completed.Load())
	p("dmwd_jobs_failed_total %d\n", m.failed.Load())
	p("dmwd_jobs_deduped_total %d\n", m.deduped.Load())
	p("dmwd_jobs_traced_total %d\n", m.traced.Load())
	p("dmwd_auctions_run_total %d\n", m.auctions.Load())
	p("dmwd_group_exp_total %d\n", m.groupExp.Load())
	p("dmwd_group_mul_total %d\n", m.groupMul.Load())
	p("dmwd_group_multiexps_total %d\n", m.groupMultiExps.Load())
	p("dmwd_group_multiexp_terms_total %d\n", m.groupMultiExpTerms.Load())
	p("dmwd_queue_depth %d\n", g.queueDepth)
	p("dmwd_workers %d\n", g.workers)
	if g.draining {
		p("dmwd_draining 1\n")
	} else {
		p("dmwd_draining 0\n")
	}
	p("dmwd_jobs_live %d\n", g.liveJobs)
	p("dmwd_uptime_seconds %.3f\n", g.uptime.Seconds())
	p("dmwd_table_build_seconds %.6f\n", g.tableBuildSeconds)
	p("dmwd_event_subscribers %d\n", g.eventSubscribers)
	p("dmwd_events_published_total %d\n", g.eventsPublished)
	p("dmwd_events_dropped_total %d\n", g.eventsDropped)
	m.writeTenants(w)
	p("dmwd_fleet_epoch %d\n", g.fleetEpoch)
	p("dmwd_fleet_peers %d\n", g.fleetPeers)
	p("dmwd_fleet_replication %d\n", g.fleetReplication)
	p("dmwd_replica_records %d\n", g.replicaRecords)
	p("dmwd_replica_pushes_total %d\n", g.replicaPushes)
	p("dmwd_replica_push_errors_total %d\n", g.replicaPushErrors)
	p("dmwd_replica_dropped_total %d\n", g.replicaDropped)
	p("dmwd_replica_accepted_total %d\n", m.replicaAccepted.Load())
	p("dmwd_replica_reads_total %d\n", m.replicaReads.Load())
	p("dmwd_wire_requests_total %d\n", m.wireRequests.Load())
	p("dmwd_wire_errors_total %d\n", m.wireErrors.Load())
	if g.journalEnabled {
		p("dmwd_journal_enabled 1\n")
		p("dmwd_journal_appends_total %d\n", g.journal.Appends)
		p("dmwd_journal_fsyncs_total %d\n", g.journal.Fsyncs)
		p("dmwd_journal_bytes_total %d\n", g.journal.Bytes)
		p("dmwd_journal_segments %d\n", g.journal.Segments)
		p("dmwd_journal_replayed_jobs %d\n", g.journalReplayed)
		p("dmwd_journal_recoveries_total %d\n", g.journalRecoveries)
	} else {
		p("dmwd_journal_enabled 0\n")
	}

	p("dmwd_slow_captures_total %d\n", m.slowCaptures.Load())
	m.latencyHDR.Write(w, "dmwd_job_latency_seconds", "")
	m.replicaPush.Write(w, "dmwd_replica_push_seconds", "")
	m.replicaPushBatch.Write(w, "dmwd_replica_push_batch_size", "")
	m.replicaAcceptBatch.Write(w, "dmwd_replica_accept_batch_size", "")
	for _, name := range phaseOrder {
		m.phases[name].Write(w, "dmwd_phase_seconds", `phase="`+name+`"`)
	}
	obs.WriteRuntimeMetrics(w, "dmwd")
}

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
		eventSubscribers: s.hub.Subscribers(),
		eventsPublished:  s.hub.Published(),
		eventsDropped:    s.hub.Dropped(),

		tableBuildSeconds: s.grp.TableBuildTime().Seconds(),
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
