// Package tenant is the multi-tenant policy layer behind dmwd's front
// door. The source paper is about mechanisms that allocate contested
// resources among self-interested agents; this package applies the same
// idea to the service's own admission edge: tenants are the strategic
// agents, queue capacity is the contested resource, and the policy
// pieces here — per-tenant token buckets, live-job quotas, a
// weighted-deficit-round-robin dispatch queue (wdrr.go), and a
// drain-rate estimate for Retry-After (retry.go) — make overload
// degrade PER TENANT (429 with a meaningful Retry-After) instead of
// globally (503).
//
// Identity is the X-Tenant-Id header: requests without one fold into
// the DefaultTenant. Limits come from a JSON config file (see
// ParseConfig / LoadFile and docs/TENANCY.md); tenants not named there
// are created on first sight with the default limits, so isolation
// applies to strangers too, up to a bounded table size.
package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"dmw/internal/obs"
)

// DefaultTenant is the identity of requests that carry no (or an
// unusable) X-Tenant-Id header, and the config key whose limits seed
// unknown tenants.
const DefaultTenant = "default"

// Transport header names shared by dmwd and dmwgw.
const (
	// HeaderTenantID carries the caller's tenant identity; the gateway
	// forwards it verbatim on every attempt, including failover retries.
	HeaderTenantID = "X-Tenant-Id"
)

// maxTenantIDLen bounds accepted tenant IDs; the alphabet below keeps
// them safe in headers, metrics labels, and logs.
const maxTenantIDLen = 64

// maxDynamicTenants bounds the registry table: beyond it, never-before-
// seen tenant IDs fold into the default tenant instead of growing the
// map (and the per-tenant metric label space) without bound.
const maxDynamicTenants = 4096

// CleanID returns id when it is usable as a tenant identity (1-64
// chars of [A-Za-z0-9._-]) and DefaultTenant otherwise. Folding rather
// than erroring mirrors obs.CleanRequestID: a client sending garbage
// still gets service, just under the shared default identity.
func CleanID(id string) string {
	if id == "" || len(id) > maxTenantIDLen {
		return DefaultTenant
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return DefaultTenant
		}
	}
	return id
}

// Limits is one tenant's admission policy.
type Limits struct {
	// Rate is the token-bucket refill in admissions per second;
	// <= 0 means unlimited (the bucket is skipped entirely).
	Rate float64
	// Burst is the bucket capacity (max admissions absorbed at once).
	// Only meaningful with Rate > 0; defaults to ceil(Rate) but at
	// least 1.
	Burst int
	// Quota bounds the tenant's LIVE jobs (queued + running) on this
	// replica: it is both an in-flight cap and, because queued jobs
	// count, a per-tenant backlog share of the admission queue.
	// Negative means unlimited; zero means the tenant may admit
	// nothing (every submit is 429).
	Quota int
	// Weight is the tenant's WDRR dispatch weight (>= 1): under
	// contention a weight-3 tenant's queued jobs are served 3x as
	// often as a weight-1 tenant's.
	Weight int
}

// withDefaults normalizes a Limits: weight floors at 1, burst defaults
// from rate.
func (l Limits) withDefaults() Limits {
	if l.Weight < 1 {
		l.Weight = 1
	}
	if l.Rate > 0 && l.Burst < 1 {
		l.Burst = int(math.Ceil(l.Rate))
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// Unlimited is the zero-policy Limits: no rate limit, no quota,
// weight 1. It is the implicit default tenant of a server configured
// without a tenants file, which is why single-tenant deployments pay
// no admission tax.
var Unlimited = Limits{Rate: 0, Burst: 0, Quota: -1, Weight: 1}

// fileLimits is the JSON form of Limits. Pointer fields distinguish
// "omitted" (inherit the documented default) from an explicit zero —
// the difference between an unlimited tenant and a zero-quota tenant.
type fileLimits struct {
	Rate   *float64 `json:"rate,omitempty"`
	Burst  *int     `json:"burst,omitempty"`
	Quota  *int     `json:"quota,omitempty"`
	Weight *int     `json:"weight,omitempty"`
}

func (fl fileLimits) toLimits() (Limits, error) {
	l := Unlimited
	if fl.Rate != nil {
		if *fl.Rate < 0 {
			return Limits{}, fmt.Errorf("rate %g negative", *fl.Rate)
		}
		l.Rate = *fl.Rate
	}
	if fl.Burst != nil {
		if *fl.Burst < 0 {
			return Limits{}, fmt.Errorf("burst %d negative", *fl.Burst)
		}
		l.Burst = *fl.Burst
	}
	if fl.Quota != nil {
		l.Quota = *fl.Quota // negative = unlimited, zero = shut out
	}
	if fl.Weight != nil {
		if *fl.Weight < 1 {
			return Limits{}, fmt.Errorf("weight %d < 1", *fl.Weight)
		}
		l.Weight = *fl.Weight
	}
	return l.withDefaults(), nil
}

// Config is the parsed tenants file.
type Config struct {
	// Default seeds tenants not named in Tenants (and the DefaultTenant
	// identity itself unless Tenants overrides it).
	Default Limits
	// Tenants maps tenant ID to its explicit limits.
	Tenants map[string]Limits
}

// fileConfig is the JSON shape of a -tenants file:
//
//	{
//	  "default": {"rate": 10, "burst": 20},
//	  "tenants": {
//	    "acme":  {"rate": 50, "burst": 100, "quota": 24, "weight": 3},
//	    "guest": {"quota": 0}
//	  }
//	}
type fileConfig struct {
	Default *fileLimits           `json:"default,omitempty"`
	Tenants map[string]fileLimits `json:"tenants,omitempty"`
}

// ParseConfig decodes a tenants file. Unknown fields are rejected so a
// typo'd limit never silently becomes "unlimited".
func ParseConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return Config{}, fmt.Errorf("tenant: decoding config: %w", err)
	}
	cfg := Config{Default: Unlimited, Tenants: make(map[string]Limits, len(fc.Tenants))}
	if fc.Default != nil {
		l, err := fc.Default.toLimits()
		if err != nil {
			return Config{}, fmt.Errorf("tenant: default limits: %w", err)
		}
		cfg.Default = l
	}
	for id, fl := range fc.Tenants {
		if CleanID(id) != id {
			return Config{}, fmt.Errorf("tenant: invalid tenant id %q (want 1-%d chars of [A-Za-z0-9._-])", id, maxTenantIDLen)
		}
		l, err := fl.toLimits()
		if err != nil {
			return Config{}, fmt.Errorf("tenant: tenant %q: %w", id, err)
		}
		cfg.Tenants[id] = l
	}
	return cfg, nil
}

// LoadFile reads and parses a -tenants config file.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("tenant: %w", err)
	}
	defer f.Close()
	cfg, err := ParseConfig(f)
	if err != nil {
		// ParseConfig errors already carry the "tenant:" prefix.
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// bucket is a mutex-guarded token bucket. Tokens refill continuously at
// rate per second up to burst; Take consumes one or reports how long
// until one is available.
type bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes one token when available. When it is not, it returns
// (false, wait) where wait is the refill time until the next token —
// the exact Retry-After a well-behaved client should honor.
func (b *bucket) take(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// Tenant is one tenant's runtime admission state.
type Tenant struct {
	// ID is the clean tenant identity.
	ID string
	// Limits is the policy this tenant admits under (immutable).
	Limits Limits
	// Tail is the tenant's job-latency tail series (seconds): an HDR
	// histogram sharing the fleet-wide geometry, so per-tenant p99/p999
	// stay meaningful per tenant instead of being averaged away in the
	// global series — the per-agent view the mechanism framing wants
	// (tenants are the strategic agents; their individual experience is
	// the thing the policy layer shapes). The server observes it on job
	// completion and exposes it as dmwd_tenant_job_latency_seconds.
	Tail *obs.HDR

	// tb is nil for rate-unlimited tenants: the common single-tenant
	// path never touches a bucket.
	tb *bucket

	mu   sync.Mutex
	live int // queued + running jobs holding a quota reservation
}

func newTenant(id string, l Limits) *Tenant {
	l = l.withDefaults()
	t := &Tenant{ID: id, Limits: l, Tail: obs.NewHDR()}
	if l.Rate > 0 {
		t.tb = &bucket{rate: l.Rate, burst: float64(l.Burst)}
	}
	return t
}

// TakeToken charges one admission against the rate limit. ok is always
// true for rate-unlimited tenants; otherwise retryAfter reports how
// long until the bucket refills one token.
func (t *Tenant) TakeToken(now time.Time) (ok bool, retryAfter time.Duration) {
	if t.tb == nil {
		return true, 0
	}
	return t.tb.take(now)
}

// Reserve takes one live-job quota slot, failing when the tenant is at
// (or configured to) its quota. Pair every successful Reserve with
// exactly one Release when the job leaves the live set.
func (t *Tenant) Reserve() bool {
	if t.Limits.Quota < 0 {
		t.mu.Lock()
		t.live++
		t.mu.Unlock()
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live >= t.Limits.Quota {
		return false
	}
	t.live++
	return true
}

// ForceReserve takes a quota slot unconditionally — recovery re-admits
// journaled work that was already accepted, which quota must not shed.
func (t *Tenant) ForceReserve() {
	t.mu.Lock()
	t.live++
	t.mu.Unlock()
}

// Release returns one quota slot.
func (t *Tenant) Release() {
	t.mu.Lock()
	if t.live > 0 {
		t.live--
	}
	t.mu.Unlock()
}

// Live reports the tenant's current live (queued + running) jobs.
func (t *Tenant) Live() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// Registry resolves tenant IDs to their runtime state. Tenants named
// in the config are created eagerly; strangers are created on first
// sight with the default limits, up to maxDynamicTenants, beyond which
// they fold into the default tenant (bounded memory, bounded metric
// cardinality).
type Registry struct {
	mu      sync.Mutex
	def     Limits
	tenants map[string]*Tenant
	static  int // tenants from the config file (never evicted)
}

// NewRegistry builds a registry from cfg. A zero Config (or
// NewRegistry(Config{})) yields a registry whose every tenant is
// Unlimited — the no-policy default of a server without a tenants
// file.
func NewRegistry(cfg Config) *Registry {
	if cfg.Default == (Limits{}) {
		cfg.Default = Unlimited
	}
	r := &Registry{
		def:     cfg.Default.withDefaults(),
		tenants: make(map[string]*Tenant, len(cfg.Tenants)+1),
	}
	for id, l := range cfg.Tenants {
		r.tenants[id] = newTenant(id, l)
	}
	if _, ok := r.tenants[DefaultTenant]; !ok {
		r.tenants[DefaultTenant] = newTenant(DefaultTenant, r.def)
	}
	r.static = len(r.tenants)
	return r
}

// Get resolves id (already CleanID'd by the transport layer) to its
// tenant, creating a dynamic entry with the default limits on first
// sight. Over the dynamic-table bound, unknown IDs resolve to the
// default tenant.
func (r *Registry) Get(id string) *Tenant {
	if id == "" {
		id = DefaultTenant
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[id]; ok {
		return t
	}
	if len(r.tenants)-r.static >= maxDynamicTenants {
		return r.tenants[DefaultTenant]
	}
	t := newTenant(id, r.def)
	r.tenants[id] = t
	return t
}

// Lookup returns the tenant only if it already exists (no creation).
func (r *Registry) Lookup(id string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Len reports the number of known tenants.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// IDs returns the known tenant IDs, sorted — the stable iteration
// order metric expositions want.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.tenants))
	for id := range r.tenants {
		out = append(out, id)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}
