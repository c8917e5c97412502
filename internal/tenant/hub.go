package tenant

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event types, in the order a successful job emits them:
//
//	admitted -> running -> phase (one per protocol phase) -> done
//
// Failed jobs end with "failed"; refused submissions emit "rejected"
// (terminal, no other events). Every event carries the tenant and job
// identity plus the hub-global sequence number clients use to dedupe a
// replayed history against the live stream.
const (
	EventAdmitted = "admitted"
	EventRunning  = "running"
	EventPhase    = "phase"
	EventDone     = "done"
	EventFailed   = "failed"
	EventRejected = "rejected"
)

// Rejection reasons carried in Event.Reason and in the reason label of
// dmwd_tenant_rejected_total. The first two are per-tenant refusals
// (HTTP 429); the last two are global backpressure (HTTP 503).
const (
	ReasonRate      = "rate"
	ReasonQuota     = "quota"
	ReasonQueueFull = "queue_full"
	ReasonDraining  = "draining"
)

// TerminalEvent reports whether typ ends a job's event stream.
func TerminalEvent(typ string) bool {
	return typ == EventDone || typ == EventFailed || typ == EventRejected
}

// Event is one job-lifecycle notification, shaped for the SSE wire
// (GET /v1/jobs/{id}/events and GET /v1/events).
type Event struct {
	// Seq is the hub-global sequence number, strictly increasing in
	// publish order; it is the SSE "id:" field.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type   string `json:"type"`
	Tenant string `json:"tenant,omitempty"`
	JobID  string `json:"job_id,omitempty"`
	// Phase names the protocol phase for EventPhase events
	// (queue_wait plus dmw.PhaseNames), and DurationMS its length.
	Phase      string  `json:"phase,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Reason classifies rejections (rate | quota | queue_full |
	// draining); Error carries the failure message of failed jobs.
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Subscription is one consumer of the hub. Events are delivered on a
// bounded channel; a consumer that falls behind loses events (counted
// in Dropped) rather than blocking the publisher — the hub must stay
// cheap with tens of thousands of idle subscribers and must never let
// one stuck SSE connection stall the worker pool.
type Subscription struct {
	hub     *Hub
	jobID   string // non-empty: per-job subscription
	tenant  string // with jobID == "": tenant filter; "" = firehose-all
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // guarded by hub.mu
}

// Events is the delivery channel. It is closed by Subscription.Close
// (never by the hub), so ranging over it ends when the consumer
// decides to stop.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports events lost to a full buffer since Subscribe.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Safe to call
// once the consumer stops reading; idempotent.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	if s.closed {
		h.mu.Unlock()
		return
	}
	s.closed = true
	if s.jobID != "" {
		h.byJob[s.jobID] = removeSub(h.byJob[s.jobID], s)
		if len(h.byJob[s.jobID]) == 0 {
			delete(h.byJob, s.jobID)
		}
	} else {
		h.byTenant[s.tenant] = removeSub(h.byTenant[s.tenant], s)
		if len(h.byTenant[s.tenant]) == 0 {
			delete(h.byTenant, s.tenant)
		}
	}
	h.subs--
	// Publish only sends while holding h.mu and s is now unreachable
	// from the indexes, so closing here cannot race a send.
	close(s.ch)
	h.mu.Unlock()
}

func removeSub(subs []*Subscription, s *Subscription) []*Subscription {
	for i, x := range subs {
		if x == s {
			subs[i] = subs[len(subs)-1]
			subs[len(subs)-1] = nil
			return subs[:len(subs)-1]
		}
	}
	return subs
}

// Hub is the bounded fan-out bus between the server's job lifecycle
// and its SSE streams. Subscriptions are indexed by job ID and by
// tenant, so publishing costs O(matching subscribers), not O(total
// subscribers): ten thousand idle per-job streams cost a publish to an
// unrelated job two map lookups and nothing else.
type Hub struct {
	mu           sync.Mutex
	seq          uint64
	byJob        map[string][]*Subscription
	byTenant     map[string][]*Subscription // "" key: firehose-all
	subs         int
	published    atomic.Uint64
	droppedTotal atomic.Uint64
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{
		byJob:    make(map[string][]*Subscription),
		byTenant: make(map[string][]*Subscription),
	}
}

// Publish assigns ev its sequence number and fans it out to the
// matching subscribers, never blocking: a full subscriber buffer drops
// the event for that subscriber only (counted on the subscription and
// on the hub). Returns the published event (with Seq set).
func (h *Hub) Publish(ev Event) Event { return h.PublishRecorded(ev, nil) }

// PublishRecorded is Publish for an event that is also kept in a
// replayable history: record (when non-nil) receives the stamped event
// while the hub lock is still held. Subscribing takes the same lock, so
// to every subscriber the fan-out and the recording are one step. A
// stream that subscribes and THEN reads the history therefore finds each
// event on its channel (it subscribed before the publish) or in the
// history (it subscribed after) — never in neither, which fanning out
// first and recording afterwards allowed for a stream opened in between.
// record must be brief and must not call back into the hub.
func (h *Hub) PublishRecorded(ev Event, record func(Event)) Event {
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	for _, s := range h.byJob[ev.JobID] {
		h.send(s, ev)
	}
	for _, s := range h.byTenant[ev.Tenant] {
		h.send(s, ev)
	}
	if ev.Tenant != "" {
		for _, s := range h.byTenant[""] {
			h.send(s, ev)
		}
	}
	if record != nil {
		record(ev)
	}
	h.mu.Unlock()
	h.published.Add(1)
	return ev
}

// send is the non-blocking delivery; caller holds h.mu.
func (h *Hub) send(s *Subscription, ev Event) {
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		h.droppedTotal.Add(1)
	}
}

// defaultBuffer sizes a subscription channel when the caller passes
// buf <= 0: a whole job lifecycle is ~10 events, so 64 absorbs bursts
// across several jobs without growing idle-stream memory much.
const defaultBuffer = 64

// SubscribeJob registers for every event of one job.
func (h *Hub) SubscribeJob(jobID string, buf int) *Subscription {
	if buf <= 0 {
		buf = defaultBuffer
	}
	s := &Subscription{hub: h, jobID: jobID, ch: make(chan Event, buf)}
	h.mu.Lock()
	h.byJob[jobID] = append(h.byJob[jobID], s)
	h.subs++
	h.mu.Unlock()
	return s
}

// SubscribeTenant registers for every event of one tenant, or for the
// whole firehose when tenant is "".
func (h *Hub) SubscribeTenant(tenant string, buf int) *Subscription {
	if buf <= 0 {
		buf = defaultBuffer
	}
	s := &Subscription{hub: h, tenant: tenant, ch: make(chan Event, buf)}
	h.mu.Lock()
	h.byTenant[tenant] = append(h.byTenant[tenant], s)
	h.subs++
	h.mu.Unlock()
	return s
}

// Subscribers reports the live subscription count (the
// dmwd_event_subscribers gauge).
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.subs
}

// Published reports the total events published.
func (h *Hub) Published() uint64 { return h.published.Load() }

// Dropped reports the total events lost to full subscriber buffers.
func (h *Hub) Dropped() uint64 { return h.droppedTotal.Load() }
