package server

import (
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/mechanism"
	"dmw/internal/obs"
	"dmw/internal/sched"
	"dmw/internal/tenant"
)

// runJob executes one job on a worker: it applies the running record
// (not journaled: a crash re-runs the job from its admission record, to
// the same result), runs the protocol, and hands the outcome to
// finishJob.
func (s *Server) runJob(job *Job) {
	running := job.record()
	running.State, running.Started = StateRunning, time.Now()
	// Applied and announced under mu, which enqueue holds from the push
	// through the admitted announcement: a job popped the instant it was
	// pushed still reads admitted before running.
	s.mu.Lock()
	job.apply(&running)
	s.announce(job, &running, nil)
	s.mu.Unlock()
	start := running.Started
	s.metrics.observePhase(PhaseQueueWait, start.Sub(job.submitted))
	// The quota reservation taken at admission is returned when the job
	// leaves the live set, and every completion feeds the drain-rate
	// estimator behind derived Retry-After values.
	defer func() {
		s.registry.Get(job.Spec.Tenant).Release()
		s.drainRate.Tick(time.Now())
	}()

	// Tracing is per-job opt-in: untraced jobs carry a nil recorder all
	// the way down (nil *obs.Recorder absorbs every call), so the
	// benchmark path records nothing and allocates nothing. Capture-on-
	// slow widens the opt-in: when the queue wait alone already crossed
	// Config.SlowThreshold, the job is in the tail this server's SLOs
	// care about, so span recording is force-enabled for its remaining
	// phases even though the client never asked — the exemplar on
	// /metrics then points at a trace that actually exists.
	slowCapture := !job.Spec.Trace && s.cfg.SlowThreshold > 0 &&
		start.Sub(job.submitted) > s.cfg.SlowThreshold
	var rec *obs.Recorder
	var root *obs.ActiveSpan
	if job.Spec.Trace || slowCapture {
		rec = obs.NewRecorderAt(job.submitted)
		rec.Record(PhaseQueueWait, 0, job.submitted, start)
		attrs := []obs.Attr{
			{Key: "job_id", Value: job.ID},
			{Key: "request_id", Value: job.Spec.RequestID},
		}
		if slowCapture {
			attrs = append(attrs, obs.Attr{Key: "slow_capture", Value: "1"})
			s.metrics.slowCaptures.Add(1)
			s.cfg.Logger.Warn("slow_capture",
				"job_id", job.ID, "request_id", job.Spec.RequestID, "tenant", job.Spec.Tenant,
				"queue_wait_ms", float64(start.Sub(job.submitted))/float64(time.Millisecond),
				"threshold_ms", float64(s.cfg.SlowThreshold)/float64(time.Millisecond))
		}
		root = rec.Start("job", 0, attrs...)
	}

	par := s.cfg.AuctionParallelism
	if job.Spec.Parallelism > 0 && job.Spec.Parallelism < par {
		par = job.Spec.Parallelism
	}
	cfg := protocol.RunConfig{
		Params:      s.params,
		Group:       s.grp,
		Bid:         bidcode.Config{W: job.Spec.W, C: job.Spec.C, N: job.Agents()},
		TrueBids:    job.bids,
		Seed:        job.Spec.Seed,
		Parallelism: par,
		CountOps:    job.Spec.CountOps,
		Record:      job.Spec.Record,
		// The fleet-wide coalescer batches this job's share checks with
		// every other concurrent job's (Run drops it for count_ops jobs
		// to keep per-agent accounting exact).
		Verifier:    s.verifier,
		Trace:       rec,
		TraceParent: root.ID(),
	}
	if job.Spec.LinkDelayMS > 0 {
		cfg.Delays = uniformDelays(job.Agents(), time.Duration(job.Spec.LinkDelayMS*float64(time.Millisecond)))
		cfg.RealTimeDelays = true
	}
	res, err := protocol.Run(cfg)
	now := time.Now()
	s.publish(job, tenant.Event{Type: tenant.EventPhase, Time: now,
		Tenant: job.Spec.Tenant, JobID: job.ID, Phase: PhaseQueueWait,
		DurationMS: float64(start.Sub(job.submitted)) / float64(time.Millisecond)})
	if res != nil {
		for _, p := range res.Phases {
			s.metrics.observePhase(p.Phase, p.Duration)
			s.publish(job, tenant.Event{Type: tenant.EventPhase, Time: now,
				Tenant: job.Spec.Tenant, JobID: job.ID, Phase: p.Phase,
				DurationMS: float64(p.Duration) / float64(time.Millisecond)})
		}
	}
	state, jr, tr := StateFailed, (*JobResult)(nil), (*protocol.Transcript)(nil)
	if err == nil {
		state, jr, tr = StateDone, buildResult(res, matchesCentralized(res, job.bids)), res.Transcript
	}
	root.SetAttr("state", string(state))
	root.End()
	if rec != nil {
		job.setTrace(rec.Spans())
		if err == nil {
			s.metrics.traced.Add(1)
		}
	}
	// Latency is observed before the finish wakes the job's waiters, so
	// a scrape that follows a completed long-poll already counts it.
	s.observeJobLatency(job, rec != nil, now)
	s.finishJob(job, state, jr, tr, err, now)
}

// observeJobLatency records one terminal job's end-to-end latency into
// both latency series: the global HDR tier (with an exemplar carrying
// the job's request identity into the tail buckets) and the tenant's
// own tail series.
func (s *Server) observeJobLatency(job *Job, traced bool, now time.Time) {
	d := now.Sub(job.submitted).Seconds()
	s.metrics.latencyHDR.ObserveEx(d, &obs.Exemplar{
		RequestID: job.Spec.RequestID,
		JobID:     job.ID,
		Tenant:    job.Spec.Tenant,
		Traced:    traced,
	})
	s.registry.Get(job.Spec.Tenant).Tail.Observe(d)
}

// uniformDelays builds the n x n one-way latency matrix for
// JobSpec.LinkDelayMS: every off-diagonal link gets d.
func uniformDelays(n int, d time.Duration) [][]time.Duration {
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = d
			}
		}
	}
	return m
}

// matchesCentralized compares the distributed outcome with the
// centralized MinWork reference on the same matrix (Figure 1's
// equivalence check, applied per job).
func matchesCentralized(res *protocol.Result, bids [][]int) bool {
	in := sched.NewInstance(len(bids), len(bids[0]))
	for i, row := range bids {
		for j, v := range row {
			in.Time[i][j] = int64(v)
		}
	}
	ref, err := (mechanism.MinWork{}).Run(in)
	if err != nil {
		return false
	}
	for j, a := range res.Auctions {
		if a.Aborted || a.Winner != ref.Schedule.Agent[j] {
			return false
		}
	}
	return true
}

// buildResult converts a protocol result into the wire shape.
func buildResult(res *protocol.Result, matches bool) *JobResult {
	out := &JobResult{
		Schedule:           res.Outcome.Schedule.Agent,
		Payments:           res.Outcome.Payments,
		FirstPrice:         res.Outcome.FirstPrice,
		SecondPrice:        res.Outcome.SecondPrice,
		Utilities:          res.Utilities,
		MatchesCentralized: matches,
		Messages:           res.Stats.Messages(),
		WireBytes:          res.Stats.Bytes(),
		Rounds:             res.Stats.Rounds(),
	}
	for _, a := range res.Auctions {
		if a.Aborted {
			out.AbortedTasks = append(out.AbortedTasks, a.Task)
		}
	}
	if res.AgentOps != nil {
		for _, c := range res.AgentOps {
			out.GroupExp += c.Exp()
			out.GroupMul += c.Mul()
			out.GroupMultiExps += c.MultiExps()
			out.GroupMultiExpTerms += c.MultiExpTerms()
		}
	}
	return out
}
