package gateway

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmw/internal/obs"
)

// The per-backend proxied-request latency histograms
// (dmwgw_backend_request_seconds{backend=...}) are HDR tiers on the
// default log-spaced bounds (obs.LogBuckets): ~5% relative error from
// microseconds to minutes, replacing the old 15-bucket hand-picked
// ladder that could not resolve sub-10ms or >1s tails.

// gwMetrics are the gateway's own counters (the fleet's counters are
// scraped and summed at exposition time, never cached).
type gwMetrics struct {
	requests    atomic.Int64 // proxied API requests (submit/batch/read)
	failovers   atomic.Int64 // attempts routed past the ring owner
	unrouted    atomic.Int64 // requests (or batch items) no replica served
	assignedIDs atomic.Int64 // job IDs generated at the gateway
	batchShards atomic.Int64 // scatter-gather shards dispatched
	streams     atomic.Int64 // SSE relays started (job streams + firehoses)

	backendErrors   atomic.Int64 // transport errors + 5xx from replicas
	slowRequests    atomic.Int64 // proxied attempts past Config.SlowThreshold
	ejected         atomic.Int64 // ring ejections by the health prober
	readmitted      atomic.Int64 // ring re-admissions
	replicaRestarts atomic.Int64 // replica identity changes behind one address

	wireNegotiated atomic.Int64 // backends seen answering with the frame capability header

	leaseJoins    atomic.Int64 // members admitted via membership lease
	leaseRenewals atomic.Int64 // lease heartbeats for existing members
	leaseReleases atomic.Int64 // graceful lease releases (drain/leave)
	leaseExpiries atomic.Int64 // leases swept after missed renewals
	// scrapeErrors counts replica /metrics scrapes dropped from the
	// fleet aggregation — unreachable replicas AND replicas whose body
	// failed to parse (a malformed line poisons the whole scrape; see
	// scrapeMetrics). Dashboards alert on this: a nonzero rate means the
	// summed dmwd_* series are an undercount.
	scrapeErrors atomic.Int64
}

// handleMetrics renders the gateway exposition: the dmwgw_* series
// first, then every dmwd_* series summed across the replicas that
// answered a live scrape. Summing is sound for the counters and the
// histogram (bucket counts add); fleet-level gauges like queue depth
// add into "total queued across the fleet", which is the number a
// dashboard in front of a sharded fleet wants anyway.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# dmwgw gateway metrics; dmwd_* series are summed across live replicas\n")
	obs.WriteBuildInfo(w, "dmwgw", g.instanceID)
	p("dmwgw_requests_total %d\n", g.metrics.requests.Load())
	p("dmwgw_failovers_total %d\n", g.metrics.failovers.Load())
	p("dmwgw_unrouted_total %d\n", g.metrics.unrouted.Load())
	p("dmwgw_assigned_ids_total %d\n", g.metrics.assignedIDs.Load())
	p("dmwgw_batch_shards_total %d\n", g.metrics.batchShards.Load())
	p("dmwgw_streams_total %d\n", g.metrics.streams.Load())
	p("dmwgw_backend_errors_total %d\n", g.metrics.backendErrors.Load())
	p("dmwgw_slow_requests_total %d\n", g.metrics.slowRequests.Load())
	p("dmwgw_backend_ejections_total %d\n", g.metrics.ejected.Load())
	p("dmwgw_backend_readmissions_total %d\n", g.metrics.readmitted.Load())
	p("dmwgw_replica_restarts_total %d\n", g.metrics.replicaRestarts.Load())
	p("dmwgw_ring_epoch %d\n", g.epoch.Load())
	p("dmwgw_lease_joins_total %d\n", g.metrics.leaseJoins.Load())
	p("dmwgw_lease_renewals_total %d\n", g.metrics.leaseRenewals.Load())
	p("dmwgw_lease_releases_total %d\n", g.metrics.leaseReleases.Load())
	p("dmwgw_lease_expiries_total %d\n", g.metrics.leaseExpiries.Load())
	p("dmwgw_wire_negotiated_total %d\n", g.metrics.wireNegotiated.Load())
	gets, misses := g.relayBufs.gets.Load(), g.relayBufs.misses.Load()
	p("dmwgw_relay_pool_gets_total %d\n", gets)
	p("dmwgw_relay_pool_misses_total %d\n", misses)
	p("dmwgw_uptime_seconds %.3f\n", time.Since(g.start).Seconds())
	backends := g.snapshotBackends()
	now := time.Now()
	for _, b := range backends {
		b.reqHist.Write(w, "dmwgw_backend_request_seconds", `backend="`+b.name+`"`)
		if left, ok := g.leaseLeft(b, now); ok {
			// Remaining lease lifetime; operators watch this sink toward
			// zero on a wedged replica before the expiry sweep fires.
			p("dmwgw_backend_lease_seconds{backend=%q} %.3f\n", b.name, left.Seconds())
		}
	}
	// Fleet rollup: every backend's request HDR merged exactly (shared
	// bucket geometry), plus the burn-rate gauges computed over it.
	g.fleetLatencySnapshot().Write(w, "dmwgw_fleet_request_seconds", "")
	g.sloEngine.WriteMetrics(w, "dmwgw", now)
	obs.WriteRuntimeMetrics(w, "dmwgw")

	scraped := 0
	agg := make(map[string]float64)
	var order []string // first-seen order of series keys, for readability
	scrapeSecs := make(map[string]float64, len(backends))
	var exemplars []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.HealthTimeout)
	defer cancel()
	for _, b := range backends {
		p("dmwgw_backend_up{backend=%q} %d\n", b.name, boolToInt(b.up.Load()))
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			scrapeStart := time.Now()
			series, exLines, err := scrapeMetrics(ctx, b)
			elapsed := time.Since(scrapeStart).Seconds()
			mu.Lock()
			defer mu.Unlock()
			// Scrape wall time is recorded for failures too: a replica
			// that times out is exactly the one whose scrape latency the
			// dashboard needs to see.
			scrapeSecs[b.name] = elapsed
			if err != nil {
				// Skip-and-count: an unreachable replica or a malformed
				// body drops that replica from this aggregation pass but
				// never corrupts it. The error is counted and logged, the
				// remaining replicas still sum.
				g.metrics.scrapeErrors.Add(1)
				g.cfg.Logger.Warn("metrics scrape failed",
					"backend", b.name, "error", err.Error())
				return
			}
			scraped++
			for _, kv := range series {
				if _, seen := agg[kv.key]; !seen {
					order = append(order, kv.key)
				}
				agg[kv.key] += kv.val
			}
			exemplars = append(exemplars, exLines...)
		}(b)
	}
	wg.Wait()
	for _, b := range backends {
		if secs, ok := scrapeSecs[b.name]; ok {
			p("dmwgw_backend_scrape_seconds{backend=%q} %.6f\n", b.name, secs)
		}
	}
	p("dmwgw_backends_scraped %d\n", scraped)
	// Emitted after the scatter-gather so this exposition reflects its
	// OWN scrape pass: a skipped replica shows up in the same body whose
	// sums it is missing from.
	p("dmwgw_backend_scrape_errors_total %d\n", g.metrics.scrapeErrors.Load())

	// Deterministic output: first-seen order is per-scrape racy across
	// goroutines, so sort lexically but keep histogram buckets in
	// numeric +Inf-last order via the key encoding below.
	sort.Strings(order)
	for _, k := range order {
		v := agg[k]
		if v == float64(int64(v)) {
			p("%s %d\n", seriesName(k), int64(v))
		} else {
			p("%s %g\n", seriesName(k), v)
		}
	}
	// Exemplar comment lines collected from replica scrapes ride through
	// the fleet exposition verbatim: summing destroys identities, but an
	// exemplar IS an identity, so each survives as-is. Sorted so the
	// output is deterministic across scrape passes.
	sort.Strings(exemplars)
	for _, line := range exemplars {
		p("%s\n", line)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// series is one parsed exposition line.
type series struct {
	key string // sortable key (see sortKey)
	val float64
}

// maxScrapeExemplars caps the exemplar comment lines retained from one
// replica scrape; a replica cannot bloat the fleet exposition.
const maxScrapeExemplars = 64

// scrapeMetrics fetches and parses one replica's /metrics. A malformed
// line fails the WHOLE scrape: a body that does not parse cleanly is a
// body whose other lines cannot be trusted either (truncated responses
// shear mid-line, and half a counter summed into the fleet total is
// worse than a missing replica). The caller counts the skip.
//
// Exemplar comment lines ("# exemplar ...") are returned separately:
// they carry request identities that must survive the fleet
// aggregation verbatim, since summing them is meaningless.
func scrapeMetrics(ctx context.Context, b *backend) ([]series, []string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.joinPath("/metrics", ""), nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, nil, err
	}
	var out []series
	var exemplars []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, obs.ExemplarPrefix) {
			if len(exemplars) < maxScrapeExemplars {
				exemplars = append(exemplars, line)
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "name{labels} value" or "name value"; value is the last field.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, nil, fmt.Errorf("malformed metrics line %q", line)
		}
		name, valStr := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("malformed metrics value in line %q: %v", line, err)
		}
		out = append(out, series{key: sortKey(name), val: v})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("scanning metrics body: %w", err)
	}
	return out, exemplars, nil
}

// sortKey makes histogram buckets sort numerically (le="2" before
// le="10", +Inf last) under a plain lexical sort by zero-padding the
// bound into the key. The le label is always LAST in the exposition
// (obs.HDR.Write emits extra labels before it), so the encoded
// key keeps e.g. dmwd_phase_seconds buckets grouped per phase with the
// bounds in numeric order inside each group. seriesName inverts it.
func sortKey(name string) string {
	if !strings.HasSuffix(name, "\"}") || strings.IndexByte(name, '{') < 0 {
		return name
	}
	j := strings.LastIndex(name, `le="`)
	if j < 0 || (name[j-1] != '{' && name[j-1] != ',') {
		return name
	}
	prefix := name[:j] // keeps the '{' or 'labels,' lead-in
	bound := name[j+len(`le="`) : len(name)-len(`"}`)]
	if bound == "+Inf" {
		return prefix + "\x7f" // after any padded number
	}
	if f, err := strconv.ParseFloat(bound, 64); err == nil {
		// 9 fractional digits cover the finest bucket bound in use
		// (100µs = 0.0001s) with room below it.
		return prefix + fmt.Sprintf("\x01%022.9f", f)
	}
	return name
}

// seriesName inverts sortKey back to the exposition name.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '\x7f'); i >= 0 {
		return key[:i] + `le="+Inf"}`
	}
	if i := strings.IndexByte(key, '\x01'); i >= 0 {
		f, err := strconv.ParseFloat(key[i+1:], 64)
		if err != nil {
			return key[:i]
		}
		return key[:i] + fmt.Sprintf(`le="%g"}`, f)
	}
	return key
}
