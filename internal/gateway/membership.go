package gateway

import (
	"encoding/json"
	"net/http"
	"net/url"
	"regexp"
	"time"

	"dmw/internal/membership"
)

// Lease-based membership (see internal/membership): replicas POST
// acquire/renew heartbeats, the gateway places them on the ring, and
// the health tick sweeps expired leases off it. Static -backend entries
// and leased members coexist — a lease may not shadow a static name.

// validMemberName bounds lease names to the same shape as job IDs:
// they end up in metric labels and log lines, so control characters
// and quotes are out.
var validMemberName = regexp.MustCompile(`^[A-Za-z0-9._:-]{1,64}$`)

// handleLeaseAcquire serves POST /v1/membership/lease: upsert the lease
// and answer with the grant (epoch, TTL, replication factor, peers).
func (g *Gateway) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	var req membership.LeaseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding lease request: " + err.Error()})
		return
	}
	if !validMemberName.MatchString(req.Name) {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid member name"})
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid member URL"})
		return
	}

	// A static backend's identity belongs to the operator's config, not
	// to whoever heartbeats the name first.
	if b, ok := g.getBackend(req.Name); ok && !b.leased {
		writeJSON(w, http.StatusConflict, apiError{Error: "member name is a static backend"})
		return
	}

	lease, isNew, changed := g.leases.Acquire(req.Name, req.URL, req.Weight, time.Now())
	switch {
	case isNew:
		g.admitLeased(lease, u)
	case changed:
		g.metrics.leaseRenewals.Add(1)
		g.repointLeased(lease, u)
	default:
		g.metrics.leaseRenewals.Add(1)
	}
	writeJSON(w, http.StatusOK, g.grant())
}

// handleLeaseRelease serves DELETE /v1/membership/lease/{name}: the
// graceful half of leaving — a draining replica releases after its
// final handoff so its keyspace moves immediately instead of after TTL.
func (g *Gateway) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := g.leases.Release(name); !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such lease"})
		return
	}
	g.removeLeased(name, "released")
	g.metrics.leaseReleases.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// admitLeased places a freshly leased member on the ring.
func (g *Gateway) admitLeased(l membership.Lease, u *url.URL) {
	g.bmu.Lock()
	if _, dup := g.backends[l.Name]; dup {
		// Lost race with a concurrent acquire for the same name; the
		// table already folded them into one lease.
		g.bmu.Unlock()
		return
	}
	b := g.newBackend(l.Name, u, l.Weight, true)
	g.backends[l.Name] = b
	g.order = append(g.order, l.Name)
	g.bmu.Unlock()

	g.ring.Add(l.Name, l.Weight)
	epoch := g.epoch.Add(1)
	g.metrics.leaseJoins.Add(1)
	g.logf("gateway: member %s joined via lease (%s, weight %d) — ring epoch %d", l.Name, l.URL, l.Weight, epoch)
}

// repointLeased applies a renewal that changed the member's URL or
// weight. A weight change re-keys the ring (epoch bump); a URL change
// only re-points the dial target, like SetBackendURL.
func (g *Gateway) repointLeased(l membership.Lease, u *url.URL) {
	b, ok := g.getBackend(l.Name)
	if !ok || !b.leased {
		return
	}
	b.base.Store(u)
	if int(b.weight.Swap(int32(l.Weight))) != l.Weight {
		g.ring.Add(l.Name, l.Weight)
		epoch := g.epoch.Add(1)
		g.logf("gateway: member %s re-weighted to %d — ring epoch %d", l.Name, l.Weight, epoch)
	}
}

// removeLeased drops a leased member from the fleet and the ring.
func (g *Gateway) removeLeased(name, reason string) {
	g.bmu.Lock()
	b, ok := g.backends[name]
	if !ok || !b.leased {
		g.bmu.Unlock()
		return
	}
	delete(g.backends, name)
	for i, n := range g.order {
		if n == name {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	g.bmu.Unlock()

	g.ring.Remove(name)
	epoch := g.epoch.Add(1)
	b.client.CloseIdleConnections()
	g.logf("gateway: member %s left (%s) — ring epoch %d", name, reason, epoch)
}

// sweepLeases ejects members whose lease expired; called from the
// health tick so removal latency is bounded by LeaseTTL+HealthInterval.
func (g *Gateway) sweepLeases(now time.Time) {
	for _, l := range g.leases.ExpireBefore(now) {
		g.removeLeased(l.Name, "lease expired")
		g.metrics.leaseExpiries.Add(1)
	}
}

// grant snapshots the membership answer for a successful acquire/renew.
func (g *Gateway) grant() membership.LeaseGrant {
	gr := membership.LeaseGrant{
		Epoch:       g.epoch.Load(),
		TTLMillis:   g.leases.TTL().Milliseconds(),
		Replication: g.cfg.Replication,
	}
	for _, b := range g.snapshotBackends() {
		gr.Peers = append(gr.Peers, membership.Peer{
			Name: b.name, URL: b.base.Load().String(), Weight: int(b.weight.Load()),
		})
	}
	return gr
}
