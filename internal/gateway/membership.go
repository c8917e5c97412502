package gateway

import (
	"encoding/json"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"time"

	"dmw/internal/membership"
)

// Lease-based membership (see internal/membership): replicas POST
// acquire/renew heartbeats, the gateway places them on the ring, and
// the health tick sweeps expired leases off it. The backend map is the
// lease table: a static -backend entry is a lease that never expires,
// and one rule covers every name — an acquire re-points it, a DELETE
// releases it.

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
	if g.acquire(req.Name, u, req.Weight, time.Now()) {
		g.metrics.leaseJoins.Add(1)
	} else {
		g.metrics.leaseRenewals.Add(1)
	}
	writeJSON(w, http.StatusOK, g.grant())
}

// handleLeaseRelease serves DELETE /v1/membership/lease/{name}: the
// graceful half of leaving — a draining replica releases after its
// final handoff so its keyspace moves immediately instead of after TTL.
func (g *Gateway) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g.bmu.Lock()
	b, ok := g.backends[name]
	var epoch uint64
	if ok {
		epoch = g.drop(b)
	}
	g.bmu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such lease"})
		return
	}
	g.metrics.leaseReleases.Add(1)
	b.client.CloseIdleConnections()
	g.logf("gateway: member %s left (released) — ring epoch %d", name, epoch)
	w.WriteHeader(http.StatusNoContent)
}

// acquire upserts name's lease at now and reports whether it joined. A
// new name goes on the ring with a deadline one LeaseTTL out. An
// existing one is re-pointed at u and weight; a weight change re-keys
// the ring (epoch bump) unless the prober has it ejected, and a leased
// member's deadline moves out while a never-expiring one stays so.
func (g *Gateway) acquire(name string, u *url.URL, weight int, now time.Time) (joined bool) {
	weight = max(weight, 1)
	expires := now.Add(g.cfg.LeaseTTL)
	g.bmu.Lock()
	b, ok := g.backends[name]
	if !ok {
		epoch := g.admit(name, u, weight, expires)
		g.bmu.Unlock()
		g.logf("gateway: member %s joined via lease (%s, weight %d) — ring epoch %d", name, u, weight, epoch)
		return true
	}
	if !b.expires.IsZero() {
		b.expires = expires
	}
	b.base.Store(u)
	var epoch uint64
	if int(b.weight.Swap(int32(weight))) != weight && b.up.Load() {
		g.ring.Add(name, weight)
		epoch = g.epoch.Add(1)
	}
	g.bmu.Unlock()
	if epoch != 0 {
		g.logf("gateway: member %s re-weighted to %d — ring epoch %d", name, weight, epoch)
	}
	return false
}

// admit places a new member in the map, the join order and the ring,
// and returns the bumped epoch. A zero expires never expires. Caller
// holds bmu.
func (g *Gateway) admit(name string, u *url.URL, weight int, expires time.Time) uint64 {
	b := g.newBackend(name, u, max(weight, 1))
	b.expires = expires
	g.backends[name] = b
	g.order = append(g.order, name)
	g.ring.Add(name, int(b.weight.Load()))
	return g.epoch.Add(1)
}

// drop removes b from the map, the join order and the ring, and returns
// the bumped epoch. Caller holds bmu.
func (g *Gateway) drop(b *backend) uint64 {
	delete(g.backends, b.name)
	g.order = slices.DeleteFunc(g.order, func(n string) bool { return n == b.name })
	g.ring.Remove(b.name)
	return g.epoch.Add(1)
}

// sweepLeases ejects members whose lease expired before now; called
// from the health tick so removal latency is bounded by
// LeaseTTL+HealthInterval.
func (g *Gateway) sweepLeases(now time.Time) {
	type expiry struct {
		b     *backend
		epoch uint64
	}
	var gone []expiry
	g.bmu.Lock()
	for _, name := range slices.Clone(g.order) {
		if b := g.backends[name]; !b.expires.IsZero() && now.After(b.expires) {
			gone = append(gone, expiry{b, g.drop(b)})
		}
	}
	g.bmu.Unlock()
	for _, e := range gone {
		g.metrics.leaseExpiries.Add(1)
		e.b.client.CloseIdleConnections()
		g.logf("gateway: member %s left (lease expired) — ring epoch %d", e.b.name, e.epoch)
	}
}

// leaseLeft reports how long b's lease has left at now; ok is false for
// a member that never expires.
func (g *Gateway) leaseLeft(b *backend, now time.Time) (left time.Duration, ok bool) {
	g.bmu.RLock()
	defer g.bmu.RUnlock()
	if b.expires.IsZero() {
		return 0, false
	}
	return b.expires.Sub(now), true
}

// grant snapshots the membership answer for a successful acquire/renew.
func (g *Gateway) grant() membership.LeaseGrant {
	gr := membership.LeaseGrant{
		Epoch:       g.epoch.Load(),
		TTLMillis:   g.cfg.LeaseTTL.Milliseconds(),
		Replication: g.cfg.Replication,
	}
	for _, b := range g.snapshotBackends() {
		gr.Peers = append(gr.Peers, membership.Peer{
			Name: b.name, URL: b.base.Load().String(), Weight: int(b.weight.Load()),
		})
	}
	return gr
}
