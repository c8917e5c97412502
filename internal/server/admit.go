package server

import (
	"errors"
	"net/http"
	"time"

	"dmw/internal/tenant"
)

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

// drainRetryAfter derives the back-off a refused client should honor:
// the expected time for the current backlog to drain at the observed
// completion rate (clamped to [1s, 60s] by tenant.RetryAfter).
func (s *Server) drainRetryAfter(now time.Time) time.Duration {
	return tenant.RetryAfter(s.queue.Len(), s.drainRate.Rate(now), s.cfg.Workers)
}

// throttle runs the per-tenant admission gates in order — token bucket,
// live-job quota — and on success holds one quota reservation (the
// caller owns releasing it). On refusal it returns the Rejection to
// serve.
func (s *Server) throttle(tn *tenant.Tenant, now time.Time) *Rejection {
	if ok, wait := tn.TakeToken(now); !ok {
		return &Rejection{Err: ErrRateLimited, Reason: tenant.ReasonRate, Tenant: tn.ID,
			RetryAfter: wait}
	}
	if !tn.Reserve() {
		return &Rejection{Err: ErrQuotaExceeded, Reason: tenant.ReasonQuota, Tenant: tn.ID,
			RetryAfter: s.drainRetryAfter(now)}
	}
	return nil
}

// refuse counts and announces a per-tenant (429) refusal and returns it
// as the error to serve. A 429 is "your budget, not my capacity", so no
// job record is created: there is nothing for the client to poll and
// nothing to journal. (A global 503 leaves a rejected record, which
// announce covers.)
func (s *Server) refuse(jobID string, rej *Rejection, now time.Time) error {
	s.metrics.noteRejected(rej.Tenant, rej.Reason)
	s.hub.Publish(tenant.Event{Type: tenant.EventRejected, Time: now,
		Tenant: rej.Tenant, JobID: jobID, Reason: rej.Reason})
	return rej
}

// backpressure builds the global (503) refusal of job.
func (s *Server) backpressure(job *Job, sentinel error, reason string, now time.Time) *Rejection {
	return &Rejection{Err: sentinel, Reason: reason, Tenant: job.Spec.Tenant,
		RetryAfter: s.drainRetryAfter(now)}
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
// per-tenant gates (rate, quota — refusals are 429s that create
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
			if rej := s.throttle(tn, now); rej != nil {
				out[i].err = s.refuse(spec.ID, rej, now)
				continue
			}
			// The quota reservation is held from here: released on every
			// failure path below, and otherwise when the job leaves the
			// live set (runJob).
		}
		rec, err := admissionRecord(*spec, bids, now)
		if err != nil {
			if tn != nil {
				tn.Release()
			}
			out[i].err = err
			continue
		}
		if draining {
			// Journal the refusal as one record, born rejected. The store
			// still arbitrates: an ID naming a live non-rejected job must
			// not be clobbered by the rejection.
			rec.end(StateRejected, nil, nil, ErrDraining.Error(), now, s.cfg.ResultTTL)
		}
		job := jobFromRecord(rec)
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
			rej := s.backpressure(job, ErrDraining, tenant.ReasonDraining, now)
			rec := job.record()
			s.announce(job, &rec, rej)
			a.err = rej
		default:
			a.err = s.enqueue(job, tn, now)
		}
	}
	return out
}

// admissionRecord is a new job's first record: queued at now, under the
// client's ID or a fresh server-assigned one. Like every time stored on
// a record, Submitted drops now's monotonic reading: a view subtracts
// stored times, and must read the same from a live job as from its
// decoded record.
func admissionRecord(spec JobSpec, bids [][]int, now time.Time) (jobRecord, error) {
	id := spec.ID
	if id == "" {
		var err error
		if id, err = randomID("job-"); err != nil {
			return jobRecord{}, err
		}
	}
	return jobRecord{ID: id, Spec: spec, Bids: bids, State: StateQueued, Submitted: now.Round(0)}, nil
}

// enqueue races a stored job against the bounded dispatch queue. A nil
// return means it is queued and announced; otherwise the job has been
// turned into a rejected record and the *Rejection says why.
func (s *Server) enqueue(job *Job, tn *tenant.Tenant, now time.Time) error {
	rec := job.record() // the admission record, before a worker can start it
	s.mu.Lock()
	pushErr := tenant.ErrQueueClosed // Shutdown began after the drain check
	if !s.draining {
		pushErr = s.queue.Push(tn.ID, tn.Limits.Weight, job)
	}
	if pushErr == nil {
		s.announce(job, &rec, nil) // under mu: see runJob
	}
	s.mu.Unlock()
	if pushErr == nil {
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
	// RetryAfterSec carries the per-item back-off for 429/503 items:
	// what a single submit renders into the Retry-After header.
	RetryAfterSec int `json:"retry_after_seconds,omitempty"`
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
			RetryAfterSec: retryAfterSecs(rej.RetryAfter)}
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
