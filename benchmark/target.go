package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dmw"
	"dmw/internal/audit"
	"dmw/internal/obs"
	"dmw/internal/server"
	"dmw/internal/tenant"
)

// opTimeout bounds one op; the run-level watchdog bounds everything else.
const opTimeout = 30 * time.Second

// sseStall is how long an SSE observer waits for a job's stream to end
// before it reconnects, the way an EventSource client does. The jobs take
// milliseconds; a stream still open after this long has lost its terminal
// event. That happens, about once in 10 000 streams: the server publishes an
// event to the hub before appending it to the job's history, so a stream that
// subscribes between the two sees it neither live nor in the replay, and when
// the event is the terminal one the stream stays open on heartbeats for ever
// (README, findings). The reconnect replays the finished job and ends at
// once; the op succeeds, two seconds late, and the run counts it.
const sseStall = 2 * time.Second

// outcome is what one executed op reports back to the driver.
type outcome struct {
	err error // nil = the op succeeded and its result was the right one
	// view is the terminal job view of single-job ops (nil otherwise).
	view *server.JobView
}

// tracer records harness-side spans around the calls into the system. A
// nil tracer (the untraced window) makes every method a no-op without
// evaluating span arguments.
type tracer struct{ rec *obs.Recorder }

func (t *tracer) op(op *planOp) *obs.ActiveSpan {
	if t == nil {
		return nil
	}
	return t.rec.Start("op", 0, obs.Int("op", op.Seq), obs.Attr{Key: "kind", Value: op.Kind.String()})
}

func (t *tracer) start(name string, parent *obs.ActiveSpan) *obs.ActiveSpan {
	if t == nil {
		return nil
	}
	return t.rec.Start(name, parent.ID())
}

// serverSide splits a finished wait span by the server's own account of the
// job: run ends where the wait ended, queue wait sits just before it.
func (t *tracer) serverSide(parent *obs.ActiveSpan, end time.Time, v *server.JobView) {
	if t == nil || v == nil {
		return
	}
	run := time.Duration(v.RunMS * float64(time.Millisecond))
	wait := time.Duration(v.QueueWaitMS * float64(time.Millisecond))
	t.rec.Record("server.run", parent.ID(), end.Add(-run), end)
	t.rec.Record("server.queue_wait", parent.ID(), end.Add(-run-wait), end.Add(-run))
}

// target executes plan ops against the booted stack.
type target struct {
	st     *stack
	plan   *plan
	client *http.Client

	// attempted / failed count every op this target ran, in any phase.
	attempted, failed atomic.Int64
	firstErr          atomic.Pointer[string]

	// jobs counts single-job ops to pick the oracle's 1-in-50 sample.
	jobs               atomic.Int64
	rederived, audited atomic.Int64
	// sseReconnects counts SSE streams reopened after sseStall.
	sseReconnects atomic.Int64

	// exact accumulates JobResult costs over the first exactJobs jobs of
	// the plan (Thm 11 accounting; must repeat exactly for a given seed).
	exact struct {
		jobs, msgs, bytes, rounds atomic.Int64
	}
}

func newTarget(st *stack, pl *plan, conns int) *target {
	return &target{
		st:   st,
		plan: pl,
		client: &http.Client{
			// Twice the op budget: a wedged server fails the op instead
			// of parking its caller until the watchdog fires.
			Timeout: 2 * opTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        4 * conns,
				MaxIdleConnsPerHost: 2 * conns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

func (t *target) close() { t.client.CloseIdleConnections() }

func (t *target) spec(op *planOp, k int) server.JobSpec {
	w := t.st.w
	spec := server.JobSpec{
		Random: &server.RandomSpec{Agents: w.N, Tasks: w.M},
		W:      w.W,
		Seed:   op.Seed + int64(k),
	}
	if w.Fleet {
		spec.ID = op.ID
		if op.Kind == opBatch {
			spec.ID = fmt.Sprintf("%s.%d", op.ID, k)
		}
		spec.Record = true
	}
	return spec
}

// run executes one op, counts it, and (outside the caller's latency clock,
// which stops when do returns) runs the sampled oracle checks.
func (t *target) run(op *planOp, tr *tracer) (out outcome, done time.Time) {
	t.attempted.Add(1)
	root := tr.op(op)
	if t.st.w.Fleet {
		out = t.doHTTP(op, tr, root)
	} else {
		out = t.doDirect(op, tr, root)
	}
	done = time.Now()
	root.End()
	if out.err == nil && out.view != nil {
		out.err = t.oracle(op, out.view)
	}
	if out.err != nil {
		t.failed.Add(1)
		msg := fmt.Sprintf("op %d (%s): %v", op.Seq, op.Kind, out.err)
		t.firstErr.CompareAndSwap(nil, &msg)
	}
	return out, done
}

// terminalOK is the check every job-carrying op applies to every job.
func terminalOK(v *server.JobView) error {
	switch {
	case v.State != server.StateDone:
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	case v.Result == nil:
		return fmt.Errorf("job %s done without a result", v.ID)
	case !v.Result.MatchesCentralized:
		return fmt.Errorf("job %s: distributed outcome differs from centralized MinWork", v.ID)
	}
	return nil
}

// doDirect is the proto workloads' op: server.Submit + Job.WaitDone.
func (t *target) doDirect(op *planOp, tr *tracer, root *obs.ActiveSpan) outcome {
	sp := tr.start("server.Submit", root)
	job, err := t.st.servers[0].Submit(t.spec(op, 0))
	sp.End()
	if err != nil {
		return outcome{err: err}
	}
	sp = tr.start("job.wait", root)
	finished := job.WaitDone(opTimeout)
	end := time.Now()
	sp.End()
	if !finished {
		return outcome{err: errors.New("job timed out")}
	}
	v := job.View()
	tr.serverSide(sp, end, &v)
	return outcome{err: terminalOK(&v), view: &v}
}

// roundTrip sends one request and reads the whole answer.
func (t *target) roundTrip(method, url string, body []byte, tenantID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenantID != "" {
		req.Header.Set(tenant.HeaderTenantID, tenantID)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts one spec through the gateway and requires a 202.
func (t *target) submit(base string, spec server.JobSpec, tenantID string, tr *tracer, root *obs.ActiveSpan) (*server.JobView, error) {
	sp := tr.start("client.encode", root)
	body, err := json.Marshal(spec)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.start("http.submit", root)
	status, data, err := t.roundTrip(http.MethodPost, base+"/v1/jobs", body, tenantID)
	sp.End()
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("submit %s: HTTP %d: %s", spec.ID, status, clip(data))
	}
	var v server.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("submit %s: %w", spec.ID, err)
	}
	return &v, nil
}

// await long-polls one job until it is terminal.
func (t *target) await(id string, tr *tracer, root *obs.ActiveSpan) (*server.JobView, error) {
	deadline := time.Now().Add(opTimeout)
	sp := tr.start("http.wait", root)
	defer sp.End()
	for {
		status, data, err := t.roundTrip(http.MethodGet, t.st.gwURL+"/v1/jobs/"+id+"?wait=30s", nil, "")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("poll %s: HTTP %d: %s", id, status, clip(data))
		}
		var v server.JobView
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("poll %s: %w", id, err)
		}
		if v.State.Terminal() {
			tr.serverSide(sp, time.Now(), &v)
			return &v, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("poll %s: still %s after %s", id, v.State, opTimeout)
		}
	}
}

// readJob fetches a finished job's view from base and requires it done.
func (t *target) readJob(base, id, span string, tr *tracer, root *obs.ActiveSpan) error {
	sp := tr.start(span, root)
	status, data, err := t.roundTrip(http.MethodGet, base+"/v1/jobs/"+id, nil, "")
	sp.End()
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("read %s: HTTP %d: %s", id, status, clip(data))
	}
	var v server.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("read %s: %w", id, err)
	}
	return terminalOK(&v)
}

// doHTTP is the fleet workloads' op, by kind.
func (t *target) doHTTP(op *planOp, tr *tracer, root *obs.ActiveSpan) outcome {
	gw := t.st.gwURL
	tenantID := tenantIDs[op.Tenant]
	switch op.Kind {
	case opJob:
		if _, err := t.submit(gw, t.spec(op, 0), tenantID, tr, root); err != nil {
			return outcome{err: err}
		}
		v, err := t.await(op.ID, tr, root)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{err: terminalOK(v), view: v}

	case opSSE:
		if _, err := t.submit(gw, t.spec(op, 0), tenantID, tr, root); err != nil {
			return outcome{err: err}
		}
		sp := tr.start("http.events", root)
		defer sp.End()
		return outcome{err: t.observeDone(op.ID)}

	case opBatch:
		specs := make([]server.JobSpec, batchSize)
		for k := range specs {
			specs[k] = t.spec(op, k)
		}
		sp := tr.start("client.encode", root)
		body, err := json.Marshal(specs)
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		sp = tr.start("http.submit_batch", root)
		status, data, err := t.roundTrip(http.MethodPost, gw+"/v1/jobs/batch", body, tenantID)
		sp.End()
		if err != nil {
			return outcome{err: err}
		}
		if status != http.StatusOK {
			return outcome{err: fmt.Errorf("batch %s: HTTP %d: %s", op.ID, status, clip(data))}
		}
		var items []server.BatchItem
		if err := json.Unmarshal(data, &items); err != nil {
			return outcome{err: fmt.Errorf("batch %s: %w", op.ID, err)}
		}
		if len(items) != batchSize {
			return outcome{err: fmt.Errorf("batch %s: %d items back, sent %d", op.ID, len(items), batchSize)}
		}
		for k, it := range items {
			if !it.Accepted {
				return outcome{err: fmt.Errorf("batch %s item %d refused: HTTP %d %s", op.ID, k, it.Status, it.Error)}
			}
			v, err := t.await(specs[k].ID, tr, root)
			if err == nil {
				err = terminalOK(v)
			}
			if err != nil {
				return outcome{err: err}
			}
		}
		return outcome{}

	case opView:
		return outcome{err: t.readJob(gw, op.Target.ID, "http.read", tr, root)}

	case opTranscript:
		sp := tr.start("http.read", root)
		status, data, err := t.roundTrip(http.MethodGet, gw+"/v1/jobs/"+op.Target.ID+"/transcript", nil, "")
		sp.End()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("transcript %s: HTTP %d: %s", op.Target.ID, status, clip(data))
		}
		if err == nil && len(data) == 0 {
			err = fmt.Errorf("transcript %s: empty body", op.Target.ID)
		}
		return outcome{err: err}

	case opDirectRead:
		nonOwner := 1 - t.st.owner(op.Target.ID)
		return outcome{err: t.readJob(t.st.urls[nonOwner], op.Target.ID, "http.read_direct", tr, root)}

	case opResubmit:
		v, err := t.submit(gw, t.spec(op.Target, 0), tenantIDs[op.Target.Tenant], tr, root)
		if err != nil {
			return outcome{err: err}
		}
		// The ID was terminal before the resubmit: the answer must be the
		// stored job, not a fresh admission.
		return outcome{err: terminalOK(v)}
	}
	return outcome{err: fmt.Errorf("unknown op kind %d", op.Kind)}
}

// observeDone watches the job's SSE stream until it ends at a done event,
// reopening it whenever it stalls.
func (t *target) observeDone(id string) error {
	for start := time.Now(); ; t.sseReconnects.Add(1) {
		last, err := t.observe(id)
		if errors.Is(err, context.DeadlineExceeded) && time.Since(start) < opTimeout {
			continue
		}
		if err == nil && last != tenant.EventDone {
			err = fmt.Errorf("events %s: stream ended at %q, want %q", id, last, tenant.EventDone)
		}
		return err
	}
}

// observe opens the job's SSE stream through the gateway and drains it. A
// per-job stream ends at the terminal event, so draining to EOF is waiting
// for completion; the last event names the outcome. A stream still open
// after sseStall is abandoned with context.DeadlineExceeded.
func (t *target) observe(id string) (last string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), sseStall)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.st.gwURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 16*1024), 1<<20)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = ev
		}
	}
	return last, sc.Err()
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// oracle runs on every single-job result: it feeds the exact-count
// accumulators, and on one job in oracleEvery re-derives the outcome from
// the seed with the centralized mechanism and (fleet workloads) audits the
// recorded transcript.
func (t *target) oracle(op *planOp, v *server.JobView) error {
	if op.Exact {
		t.exact.jobs.Add(1)
		t.exact.msgs.Add(v.Result.Messages)
		t.exact.bytes.Add(v.Result.WireBytes)
		t.exact.rounds.Add(v.Result.Rounds)
	}
	if t.jobs.Add(1)%oracleEvery != 1 {
		return nil
	}
	w := t.st.w
	if err := rederive(w, op.Seed, v.Result); err != nil {
		return fmt.Errorf("job %s: %w", v.ID, err)
	}
	t.rederived.Add(1)
	if !w.Fleet {
		return nil
	}
	status, data, err := t.roundTrip(http.MethodGet, t.st.gwURL+"/v1/jobs/"+v.ID+"/transcript", nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("transcript %s: HTTP %d: %s", v.ID, status, clip(data))
	}
	env, err := audit.Load(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("transcript %s: %w", v.ID, err)
	}
	rep, err := audit.Verify(t.st.params, env.Transcript)
	if err != nil {
		return fmt.Errorf("audit %s: %w", v.ID, err)
	}
	if !rep.OK() {
		return fmt.Errorf("audit %s: transcript does not verify: %v", v.ID, rep.Findings)
	}
	t.audited.Add(1)
	return nil
}

// rederive recomputes the job's outcome with the centralized mechanism on
// the bids its seed generates and compares field by field.
func rederive(w workload, seed int64, got *server.JobResult) error {
	bids := dmw.RandomBids(w.N, w.M, w.W, seed)
	inst, err := dmw.BidsToInstance(bids)
	if err != nil {
		return err
	}
	ref, err := dmw.RunCentralized(bids)
	if err != nil {
		return err
	}
	for j := 0; j < w.M; j++ {
		if got.Schedule[j] != ref.Schedule.Agent[j] {
			return fmt.Errorf("task %d went to agent %d, MinWork assigns %d", j, got.Schedule[j], ref.Schedule.Agent[j])
		}
		if got.FirstPrice[j] != ref.FirstPrice[j] || got.SecondPrice[j] != ref.SecondPrice[j] {
			return fmt.Errorf("task %d prices (%d,%d), MinWork (%d,%d)", j,
				got.FirstPrice[j], got.SecondPrice[j], ref.FirstPrice[j], ref.SecondPrice[j])
		}
	}
	for i := 0; i < w.N; i++ {
		if got.Payments[i] != ref.Payments[i] {
			return fmt.Errorf("agent %d paid %d, MinWork pays %d", i, got.Payments[i], ref.Payments[i])
		}
		if u := dmw.Utility(ref, inst, i); got.Utilities[i] != u {
			return fmt.Errorf("agent %d utility %d, MinWork gives %d", i, got.Utilities[i], u)
		}
	}
	if len(got.AbortedTasks) != 0 {
		return fmt.Errorf("aborted tasks %v", got.AbortedTasks)
	}
	return nil
}
