// Package replica implements the fleet's replicated results tier: when
// a job reaches a terminal state, its owner pushes the durable record
// (result, error, transcript — the full jobRecord JSON) to its R-1 ring
// successors over one small RPC, so reads of acknowledged jobs survive
// resizes and owner death. The tier is read-any with owner-preference:
// the gateway still routes a read to the ring owner first and only
// falls through to successors, which now answer from their replica
// store instead of 404ing.
//
// Payloads are opaque to this package (json.RawMessage): the server
// owns the record schema; the replicator owns placement and transport.
// Copies are held in memory only — durability comes from the owner's
// WAL plus R-way redundancy, not from journaling copies twice.
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmw/internal/ring"
	"dmw/internal/wire"
)

// RecordsPath is the replication RPC endpoint on every dmwd: POST a
// binary record frame (internal/wire).
const RecordsPath = "/v1/replica/records"

// Peer is one fleet member in the replication view (mirrors
// membership.Peer; duplicated to keep the packages decoupled).
type Peer struct {
	Name   string `json:"name"`
	URL    string `json:"url"`
	Weight int    `json:"weight"`
}

// View is the fleet snapshot a replicator places copies against —
// rebuilt from every membership lease grant.
type View struct {
	// Epoch is the gateway ring epoch the peer list was issued at.
	Epoch uint64
	// Self is this replica's member name; it is excluded from push
	// targets (the owner already holds the record durably).
	Self string
	// Replication is the factor R: owner + R-1 successor copies.
	Replication int
	// Peers is the full membership, self included.
	Peers []Peer
}

// Record is one replicated terminal job record.
type Record struct {
	// ID is the job ID — also the placement key, so copies land on
	// exactly the ring successors a gateway read falls through to.
	ID string
	// Origin names the owner that pushed the record.
	Origin string
	// Epoch is the pusher's view epoch, for operators diagnosing
	// placement built from a stale ring.
	Epoch uint64
	// Payload is the owner's full jobRecord JSON, served back on reads.
	Payload json.RawMessage
}

// Config configures a Replicator.
type Config struct {
	// VirtualNodes per unit weight on the placement ring (default
	// ring.DefaultVirtualNodes).
	VirtualNodes int
	// QueueDepth bounds the async push queue (default 1024); when full,
	// offers are dropped and counted rather than blocking the worker
	// that finished the job.
	QueueDepth int
	// PushTimeout bounds one replication POST (default 5s).
	PushTimeout time.Duration
	// Client is the HTTP client for pushes (default: PushTimeout-bound).
	Client *http.Client
	// Logf receives push failures; nil discards.
	Logf func(format string, args ...any)
	// ObservePush, when set, observes each push attempt's wall time in
	// seconds (success or failure) — wired to the server's metrics
	// histogram.
	ObservePush func(seconds float64)
	// ObserveBatch, when set, observes the record count of each push
	// RPC — wired to the server's push-batch-size histogram, so the
	// coalescing win of the batched drain is visible in /metrics.
	ObserveBatch func(records int)
}

// Replicator owns replication placement and transport for one replica.
// It holds its own copy of the consistent-hash ring, rebuilt from each
// lease grant, so placement agrees with the gateway's up to the grant
// epoch. Pushes are asynchronous: Offer never blocks job completion.
type Replicator struct {
	cfg Config

	mu   sync.RWMutex
	view View
	ring *ring.Ring
	urls map[string]string // member name -> base URL

	queue chan Record
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	pushes     atomic.Int64 // records delivered to a successor
	pushErrors atomic.Int64 // delivery attempts that failed after retry
	dropped    atomic.Int64 // offers dropped on a full queue
}

// NewReplicator builds and starts a replicator (one push worker). It
// is inert — Offer is a no-op — until Update installs a view with at
// least Replication 1 and a known Self.
func NewReplicator(cfg Config) *Replicator {
	if cfg.VirtualNodes <= 0 {
		cfg.VirtualNodes = ring.DefaultVirtualNodes
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.PushTimeout <= 0 {
		cfg.PushTimeout = 5 * time.Second
	}
	if cfg.Client == nil {
		// Replication pushes are small, frequent, and always aimed at the
		// same few ring successors: keep-alive reuse matters more than
		// connection parallelism, so the pool is tuned for a handful of
		// warm connections per peer instead of the transport defaults.
		cfg.Client = &http.Client{
			Timeout: cfg.PushTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ObservePush == nil {
		cfg.ObservePush = func(float64) {}
	}
	if cfg.ObserveBatch == nil {
		cfg.ObserveBatch = func(int) {}
	}
	r := &Replicator{
		cfg:   cfg,
		ring:  ring.New(cfg.VirtualNodes),
		urls:  make(map[string]string),
		queue: make(chan Record, cfg.QueueDepth),
		stop:  make(chan struct{}),
	}
	r.wg.Add(1)
	go r.worker()
	return r
}

// Update installs a new fleet view, rebuilding the placement ring.
func (r *Replicator) Update(v View) {
	rg := ring.New(r.cfg.VirtualNodes)
	urls := make(map[string]string, len(v.Peers))
	for _, p := range v.Peers {
		w := p.Weight
		if w < 1 {
			w = 1
		}
		rg.Add(p.Name, w)
		urls[p.Name] = p.URL
	}
	r.mu.Lock()
	r.view = v
	r.ring = rg
	r.urls = urls
	r.mu.Unlock()
}

// CurrentView returns the installed fleet view.
func (r *Replicator) CurrentView() View {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view
}

// Ready reports whether the replicator has a view to place against.
func (r *Replicator) Ready() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view.Self != "" && len(r.view.Peers) > 0
}

// Targets returns the R-1 successor peers (self excluded) that should
// hold a copy of id.
func (r *Replicator) Targets(id string) []Peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.view.Replication <= 1 || len(r.urls) == 0 {
		return nil
	}
	names := r.ring.Successors(id, 0)
	out := make([]Peer, 0, r.view.Replication-1)
	for _, n := range names {
		if n == r.view.Self {
			continue
		}
		out = append(out, Peer{Name: n, URL: r.urls[n]})
		if len(out) == r.view.Replication-1 {
			break
		}
	}
	return out
}

// Offer enqueues rec for asynchronous push to its successor copies.
// Never blocks: a full queue drops the offer (counted) — the record is
// still durable in the owner's WAL, so a drop only costs read locality
// until the next handoff.
func (r *Replicator) Offer(rec Record) {
	if !r.Ready() {
		return
	}
	select {
	case r.queue <- rec:
	default:
		r.dropped.Add(1)
	}
}

// worker drains the async queue in batches: one blocking receive, then
// everything immediately available up to handoffChunk. Under light load
// each record still ships alone within one receive of finishing; under
// a completion burst (many workers finishing into a slow link) the
// queue depth converts into batch size, amortizing one POST per peer
// over the whole burst instead of one per record.
func (r *Replicator) worker() {
	defer r.wg.Done()
	batch := make([]Record, 0, handoffChunk)
	for {
		select {
		case <-r.stop:
			return
		case rec := <-r.queue:
			batch = append(batch[:0], rec)
		drain:
			for len(batch) < handoffChunk {
				select {
				case more := <-r.queue:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			r.pushBatch(batch)
		}
	}
}

// pushBatch groups the drained records by target peer and delivers one
// POST per peer (retrying once after a short pause — enough to ride out
// a successor that is mid-restart without wedging the queue). A record
// with R-1 > 1 appears in several peers' groups.
func (r *Replicator) pushBatch(recs []Record) {
	groups := make(map[string][]Record)
	peers := make(map[string]Peer)
	for _, rec := range recs {
		for _, p := range r.Targets(rec.ID) {
			groups[p.Name] = append(groups[p.Name], rec)
			peers[p.Name] = p
		}
	}
	for name, group := range groups {
		p := peers[name]
		if err := r.post(p, group); err != nil {
			time.Sleep(50 * time.Millisecond)
			if err = r.post(p, group); err != nil {
				r.pushErrors.Add(int64(len(group)))
				r.cfg.Logf("replica: pushing %d records to %s failed: %v", len(group), name, err)
				continue
			}
		}
		r.pushes.Add(int64(len(group)))
	}
}

// handoffChunk bounds one drain-time push body: 256 full job records
// stay well under dmwd's 8 MiB batch body limit for realistic results.
const handoffChunk = 256

// allCandidates returns the full successor order for id with self
// excluded: the preferred copy holders first, then every remaining
// member as handoff fallbacks.
func (r *Replicator) allCandidates(id string) []Peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.urls) == 0 {
		return nil
	}
	names := r.ring.Successors(id, 0)
	out := make([]Peer, 0, len(names))
	for _, n := range names {
		if n == r.view.Self {
			continue
		}
		out = append(out, Peer{Name: n, URL: r.urls[n]})
	}
	return out
}

// Handoff synchronously pushes recs — owned terminal records plus any
// held copies — onto the surviving ring. Called while draining, after
// in-flight jobs finished and before the lease is released, so a
// graceful leave moves every record it holds to peers that outlive it.
//
// The view a leaver hands off against can be one renewal stale — it may
// still list a member that itself just left — so delivery is resilient,
// not fire-and-forget: each record aims for its R-1 ring successors,
// a peer that fails a push is marked dead for the rest of the handoff,
// and affected records fall back to the next members in their successor
// order until at least one live peer holds a copy. Records are batched
// per target peer so a leave pushes a few chunked bodies instead of
// thousands of tiny POSTs.
func (r *Replicator) Handoff(recs []Record) {
	if !r.Ready() {
		return
	}
	repl := r.CurrentView().Replication
	type pending struct {
		rec    Record
		cands  []Peer // full successor order, self excluded
		next   int    // index of the next candidate to try
		got    int    // successful deliveries so far
		needed int    // deliveries to aim for
	}
	items := make([]*pending, 0, len(recs))
	for _, rec := range recs {
		cands := r.allCandidates(rec.ID)
		if len(cands) == 0 {
			continue
		}
		// Even at R=1 a leave must move the record somewhere: the owner
		// is about to disappear, so one survivor copy is the floor.
		needed := repl - 1
		if needed < 1 {
			needed = 1
		}
		if needed > len(cands) {
			needed = len(cands)
		}
		items = append(items, &pending{rec: rec, cands: cands, needed: needed})
	}
	dead := make(map[string]bool)
	for {
		// One wave: each unfinished record attempts its next live
		// candidate; grouping by peer keeps the bodies batched.
		batches := make(map[string][]*pending)
		peers := make(map[string]Peer)
		for _, it := range items {
			if it.got >= it.needed {
				continue
			}
			for it.next < len(it.cands) && dead[it.cands[it.next].Name] {
				it.next++
			}
			if it.next >= len(it.cands) {
				if it.got == 0 {
					r.cfg.Logf("replica: handoff: no reachable peer for record %s", it.rec.ID)
				}
				it.got = it.needed // exhausted: give up on this record
				continue
			}
			p := it.cands[it.next]
			it.next++
			batches[p.Name] = append(batches[p.Name], it)
			peers[p.Name] = p
		}
		if len(batches) == 0 {
			return
		}
		for name, group := range batches {
			p := peers[name]
			for start := 0; start < len(group); start += handoffChunk {
				end := start + handoffChunk
				if end > len(group) {
					end = len(group)
				}
				chunk := group[start:end]
				batch := make([]Record, len(chunk))
				for i, it := range chunk {
					batch[i] = it.rec
				}
				if err := r.post(p, batch); err != nil {
					r.pushErrors.Add(int64(len(batch)))
					r.cfg.Logf("replica: handoff of %d records to %s failed: %v", len(batch), name, err)
					// Peer is unreachable: skip its remaining chunks and
					// route everything it missed to fallbacks next wave.
					dead[name] = true
					break
				}
				r.pushes.Add(int64(len(batch)))
				for _, it := range chunk {
					it.got++
				}
			}
		}
	}
}

// post delivers one batch to one peer as a binary record frame. The
// whole exchange — send, drain, close — runs under the push timeout, so
// the keep-alive connection goes back to the pool whatever body the
// peer answers with. Any 2xx is success; anything else a statusError.
func (r *Replicator) post(p Peer, recs []Record) error {
	r.cfg.ObserveBatch(len(recs))
	start := time.Now()
	defer func() { r.cfg.ObservePush(time.Since(start).Seconds()) }()
	wrecs := make([]wire.Record, len(recs))
	for i, rec := range recs {
		wrecs[i] = wire.Record{ID: rec.ID, Origin: rec.Origin, Epoch: rec.Epoch, Payload: rec.Payload}
	}
	body, err := wire.AppendRecordFrame(nil, wrecs)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.PushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+RecordsPath, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.ContentTypeRecordFrame)
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// The status already decides the outcome; a failed drain only costs
	// the connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return &statusError{status: resp.StatusCode}
	}
	return nil
}

type statusError struct{ status int }

func (e *statusError) Error() string { return "HTTP " + strconv.Itoa(e.status) }

// Stats reports lifetime push counters: delivered, failed, dropped.
func (r *Replicator) Stats() (pushes, pushErrors, dropped int64) {
	return r.pushes.Load(), r.pushErrors.Load(), r.dropped.Load()
}

// Close stops the push worker. Queued offers are discarded (they are
// WAL-durable on the owner); call Handoff first when leaving gracefully.
func (r *Replicator) Close() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}
