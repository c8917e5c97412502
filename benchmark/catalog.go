package main

import (
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/group"
)

// The catalogue: workload and metric names are permanent. BENCHMARK.json at
// the repository root repeats them for the driver; benchmark_test.go fails
// when the two drift apart.

// workload describes one named traffic shape. Everything a run does is a
// function of (workload, seed, seconds).
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json's "why").
	Why    string
	Preset string
	// N, M, W are the job shape: agents, tasks, bid set (c is always 0).
	N, M int
	W    []int
	// Fleet selects the serving stack: false drives server.Submit on one
	// in-process server, true drives HTTP through dmwgw over two dmwd
	// replicas with WAL, tenants and replication.
	Fleet bool
	// OpenRate > 0 makes the workload open loop at that many arrivals per
	// second with the mixed read/write plan; 0 is a closed loop of P callers.
	OpenRate float64
	// MaxRate bounds the pre-generated closed-loop plan (ops per second the
	// plan can feed); roughly ten times the reference box's rate.
	MaxRate float64
	// ResultTTL is how long the servers retain a finished job. It is short
	// on purpose: the retained set — which the WAL's snapshot compaction
	// re-encodes in full every 1024 appends, and the heap carries — stops
	// growing before the measured window opens, so every slice measures
	// the same system. With dmwd's 15-minute default a 20 s fleet-submit
	// window decays from 610 to 312 ops/s slice by slice (README).
	ResultTTL time.Duration
}

func (w workload) bid() bidcode.Config { return bidcode.Config{W: w.W, C: 0, N: w.N} }

func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// openRate is fleet-mixed-open's fixed arrival rate. It was set once, at no
// more than half of fleet-submit's reference ops_per_s (README records the
// check), and is never retuned: retuning would silently rebase every
// latency the workload reports.
const openRate = 200

var workloads = []workload{
	{
		Name:   "proto-small",
		Why:    "closed loop on server.Submit, Test64 n=5 m=2: the protocol fabric (goroutines, transport rounds, poly/field, GC) does the work",
		Preset: group.PresetTest64, N: 5, M: 2, W: span(1, 3), MaxRate: 8000, ResultTTL: 2 * time.Second,
	},
	{
		Name:   "proto-crypto",
		Why:    "same path, Sim256 n=12 m=1 sigma=12: group Montgomery/MultiExp and commit verification dominate, fabric does not",
		Preset: group.PresetSim256, N: 12, M: 1, W: span(1, 11), MaxRate: 1000, ResultTTL: 2 * time.Second,
	},
	{
		Name:   "fleet-submit",
		Why:    "closed loop of HTTP submit+long-poll via dmwgw over 2 dmwd with WAL, tenants, replication: the serving stack is over half the cpu",
		Preset: group.PresetTest64, N: 4, M: 1, W: span(1, 3), Fleet: true, MaxRate: 8000, ResultTTL: 2 * time.Second,
	},
	{
		Name:   "fleet-mixed-open",
		Why:    "open loop at a fixed 200 ops/s mixing submits, SSE, batches, reads, replica reads and resubmits: reads beside writes, real queueing",
		Preset: group.PresetTest64, N: 4, M: 1, W: span(1, 3), Fleet: true, OpenRate: openRate,
		// Reads address jobs up to targetMaxAge old; see plan.go.
		ResultTTL: 4 * time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one contracted metric: its name, unit, direction and (for
// end-to-end metrics) the share of the baseline median it may worsen by
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// endToEnd are the gated metrics, reported by a --trace 0 run. Every one is
// defined, and non-zero, on every workload.
//
// The bounds are what the reference box can resolve, not what one would
// wish for: its effective core speed wanders by 10-25 % over minutes
// (identical work costs 1.95-2.5 cpu-ms per proto-small job from one run to
// the next, with no steal time reported), so every metric with time in it
// carries the widest bound the contract allows. Only the allocation count
// is tight. A claimed gain is judged by paired runs (README), never by
// these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_latency_p50_ms", "ms", "lower", 0.25},
	{"op_latency_p75_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
}

// perLayer are the diagnostic metrics, reported by a --trace 1 run. They
// carry no bound. A metric whose layer the workload does not touch reads 0.
var perLayer = []metricDef{
	{"client.failed_share", "ratio", "lower", 0},
	{"client.op_latency_p90_ms", "ms", "lower", 0},
	{"client.op_latency_p99_ms", "ms", "lower", 0},
	{"client.read_latency_p50_ms", "ms", "lower", 0},
	{"client.read_latency_p90_ms", "ms", "lower", 0},
	{"client.sched_lag_p99_ms", "ms", "lower", 0},
	{"client.batch8_p50_ms", "ms", "lower", 0},
	{"client.resubmit_p50_ms", "ms", "lower", 0},
	{"client.sse_p50_ms", "ms", "lower", 0},
	{"client.direct_read_p50_ms", "ms", "lower", 0},
	{"client.trace_overhead_pct", "%", "lower", 0},

	{"server.submit_us", "us", "lower", 0},
	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.run_ms", "ms", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.http_submit_us", "us", "lower", 0},
	{"server.http_read_us", "us", "lower", 0},
	{"server.metrics_scrape_ms", "ms", "lower", 0},
	{"server.rejected_share", "ratio", "lower", 0},

	{"tenant.admit_ns", "ns", "lower", 0},
	{"tenant.queue_push_pop_ns", "ns", "lower", 0},
	{"tenant.hub_publish_ns", "ns", "lower", 0},

	{"journal.append_us", "us", "lower", 0},
	{"journal.append_batch8_us", "us", "lower", 0},
	{"journal.sync_ms", "ms", "lower", 0},
	{"journal.appends_per_job", "count", "lower", 0},
	{"journal.bytes_per_job", "count", "lower", 0},
	{"journal.fsyncs_per_job", "count", "lower", 0},
	{"journal.recovery_ms_per_1k", "ms", "lower", 0},

	{"dmw.run_ms", "ms", "lower", 0},
	{"dmw.allocs_per_run", "count", "lower", 0},
	{"dmw.phase_init_ms", "ms", "lower", 0},
	{"dmw.phase_bidding_ms", "ms", "lower", 0},
	{"dmw.phase_allocation_ms", "ms", "lower", 0},
	{"dmw.phase_settlement_ms", "ms", "lower", 0},
	{"dmw.phase_finalize_ms", "ms", "lower", 0},
	{"dmw.unattributed_share", "ratio", "lower", 0},

	{"transport.msgs_per_job", "count", "lower", 0},
	{"transport.wire_bytes_per_job", "count", "lower", 0},
	{"transport.rounds_per_job", "count", "lower", 0},
	{"transport.round_us", "us", "lower", 0},
	{"transport.msg_ns", "ns", "lower", 0},

	{"wire.msg_encode_ns", "ns", "lower", 0},
	{"wire.msg_decode_ns", "ns", "lower", 0},
	{"wire.job_frame_rt_us", "us", "lower", 0},
	{"wire.result_frame_rt_us", "us", "lower", 0},
	{"wire.record_frame_rt_us", "us", "lower", 0},

	{"bidcode.encode_us", "us", "lower", 0},
	{"bidcode.shares_us", "us", "lower", 0},
	{"poly.resolve_degree_us", "us", "lower", 0},
	{"poly.interpolate_us", "us", "lower", 0},
	{"poly.eval_us", "us", "lower", 0},
	{"field.lagrange_us", "us", "lower", 0},
	{"field.inv_ns", "ns", "lower", 0},

	{"group.mul_ns", "ns", "lower", 0},
	{"group.exp_us", "us", "lower", 0},
	{"group.commit_us", "us", "lower", 0},
	{"group.multiexp_sigma_us", "us", "lower", 0},
	{"group.multiexp_batch_us", "us", "lower", 0},
	{"group.table_build_ms", "ms", "lower", 0},
	{"group.exps_per_job", "count", "lower", 0},
	{"group.multiexp_terms_per_job", "count", "lower", 0},

	{"commit.new_us", "us", "lower", 0},
	{"commit.batch_verify_us", "us", "lower", 0},
	{"commit.coalesced_verify_us", "us", "lower", 0},
	{"commit.coalesce_items_per_pass", "count", "higher", 0},
	{"commit.gamma_at_us", "us", "lower", 0},
	{"commit.gamma_shared_hit_share", "ratio", "higher", 0},
	{"commit.verify_lambda_psi_us", "us", "lower", 0},
	{"commit.verify_disclosure_us", "us", "lower", 0},

	{"mechanism.minwork_us", "us", "lower", 0},
	{"audit.verify_ms", "ms", "lower", 0},

	{"gateway.submit_overhead_us", "us", "lower", 0},
	{"gateway.read_overhead_us", "us", "lower", 0},
	{"gateway.batch_submit_us_per_job", "us", "lower", 0},
	{"gateway.relay_pool_hit_share", "ratio", "higher", 0},
	{"gateway.wire_negotiated_share", "ratio", "higher", 0},
	{"gateway.metrics_scrape_ms", "ms", "lower", 0},

	{"ring.owner_ns", "ns", "lower", 0},
	{"replica.offer_us", "us", "lower", 0},
	{"replica.pushes_per_job", "count", "lower", 0},
	{"replica.dropped_share", "ratio", "lower", 0},
	{"replica.store_get_ns", "ns", "lower", 0},
	{"replica.copy_read_share", "ratio", "higher", 0},

	{"obs.hdr_observe_ns", "ns", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.alloc_kb_per_op", "KiB", "lower", 0},
	{"runtime.peak_rss_mb", "MiB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
}
