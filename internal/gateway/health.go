package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"dmw/internal/slo"
)

// backendHealth is the slice of dmwd's /healthz body the prober cares
// about.
type backendHealth struct {
	Status    string `json:"status"`
	ReplicaID string `json:"replica_id"`
}

// healthLoop actively probes every backend's /healthz on the configured
// interval, ejecting persistently failing replicas from the ring and
// re-admitting them once they answer again. Ejection is what converts
// per-request failover (reactive, pays a timeout per request) into
// rerouted placement (proactive, pays nothing): while a replica is off
// the ring its keyspace shifts to the successors that failover was
// already landing on, so placement and retry agree.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			now := time.Now()
			g.sweepLeases(now)
			for _, b := range g.snapshotBackends() {
				g.probe(b)
			}
			// Burn-rate samples ride the probe tick: the engine wants
			// periodic cumulative snapshots, and this loop is already
			// the gateway's only timer. Ticks faster than the configured
			// sample interval are absorbed by the engine's horizon.
			if now.Sub(g.lastSLOSample) >= g.cfg.SLOSampleInterval {
				g.lastSLOSample = now
				g.sloEngine.Sample(now)
			}
		}
	}
}

// probe runs one health check and applies the ejection state machine.
func (g *Gateway) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HealthTimeout)
	defer cancel()
	healthy, rid := g.checkOnce(ctx, b)

	b.mu.Lock()
	defer b.mu.Unlock()
	if rid != "" && rid != b.replicaID {
		if b.replicaID != "" {
			// Same address, new identity: the replica restarted (or the
			// address was reused by a different instance). Placement is
			// unaffected — the ring keys on the backend name — but the
			// event is worth a log line and a counter for operators
			// watching a crash-looping replica.
			g.metrics.replicaRestarts.Add(1)
			g.logf("gateway: backend %s changed replica identity %s -> %s", b.name, b.replicaID, rid)
		}
		b.replicaID = rid
	}
	if healthy {
		b.fails = 0
		if !b.up.Load() {
			b.oks++
			if b.oks >= g.cfg.RecoverAfter {
				b.oks = 0
				if epoch, ok := g.setUp(b, true); ok {
					g.metrics.readmitted.Add(1)
					g.logf("gateway: backend %s re-admitted to ring (epoch %d)", b.name, epoch)
				}
			}
		}
		return
	}
	b.oks = 0
	b.fails++
	if b.up.Load() && b.fails >= g.cfg.FailAfter {
		if epoch, ok := g.setUp(b, false); ok {
			g.metrics.ejected.Add(1)
			g.logf("gateway: backend %s ejected after %d failed probes (epoch %d)", b.name, b.fails, epoch)
		}
	}
}

// setUp moves b onto (up) or off the ring and returns the bumped epoch.
// It runs under bmu like every other membership change, and does
// nothing (ok false) if b has left the fleet since it was probed, so a
// late probe cannot put a released or expired member back on the ring.
func (g *Gateway) setUp(b *backend, up bool) (epoch uint64, ok bool) {
	g.bmu.Lock()
	defer g.bmu.Unlock()
	if g.backends[b.name] != b {
		return 0, false
	}
	b.up.Store(up)
	if up {
		g.ring.Add(b.name, int(b.weight.Load()))
	} else {
		g.ring.Remove(b.name)
	}
	return g.epoch.Add(1), true
}

// checkOnce performs one /healthz GET. A replica that answers 200 is
// healthy; 503 (draining) still proves liveness for reads but must not
// receive new placements, so it counts as unhealthy for ring purposes.
func (g *Gateway) checkOnce(ctx context.Context, b *backend) (healthy bool, replicaID string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.joinPath("/healthz", ""), nil)
	if err != nil {
		return false, ""
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	var hv backendHealth
	if data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes)); err == nil {
		_ = json.Unmarshal(data, &hv)
	}
	return resp.StatusCode == http.StatusOK, hv.ReplicaID
}

// gatewayHealth is the gateway's own /healthz body.
type gatewayHealth struct {
	Status     string  `json:"status"` // "ok" | "degraded" (some down) | "down" (all down)
	UptimeSecs float64 `json:"uptime_seconds"`
	// RingEpoch numbers ring rebuilds; it moves on every membership
	// change, so a stable value means placement has converged.
	RingEpoch uint64          `json:"ring_epoch"`
	Backends  []backendStatus `json:"backends"`
	// SLO carries one verdict per configured latency objective,
	// evaluated over the fleet-merged backend latency series; absent
	// when no objectives are configured.
	SLO []slo.Verdict `json:"slo,omitempty"`
}

type backendStatus struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Weight    int    `json:"weight"`
	Up        bool   `json:"up"`
	ReplicaID string `json:"replica_id,omitempty"`
	// LeaseExpiresSecs is the remaining lease lifetime, absent for a
	// member that never expires (a static backend). Negative means the
	// sweep is about to remove it.
	LeaseExpiresSecs *float64 `json:"lease_expires_seconds,omitempty"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hv := gatewayHealth{
		UptimeSecs: time.Since(g.start).Seconds(),
		RingEpoch:  g.epoch.Load(),
		SLO:        g.sloEngine.Verdicts(time.Now()),
	}
	now := time.Now()
	up, total := 0, 0
	for _, b := range g.snapshotBackends() {
		b.mu.Lock()
		rid := b.replicaID
		b.mu.Unlock()
		alive := b.up.Load()
		total++
		if alive {
			up++
		}
		bs := backendStatus{
			Name: b.name, URL: b.base.Load().String(), Weight: int(b.weight.Load()), Up: alive, ReplicaID: rid,
		}
		if left, ok := g.leaseLeft(b, now); ok {
			rem := left.Seconds()
			bs.LeaseExpiresSecs = &rem
		}
		hv.Backends = append(hv.Backends, bs)
	}
	status := http.StatusOK
	switch {
	case total > 0 && up == total:
		hv.Status = "ok"
	case up > 0:
		hv.Status = "degraded"
	default:
		hv.Status = "down"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, hv)
}
