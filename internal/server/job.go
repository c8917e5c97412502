package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"sort"
	"sync"
	"time"

	"dmw/internal/bidcode"
	protocol "dmw/internal/dmw"
	"dmw/internal/obs"
	"dmw/internal/tenant"
)

// JobState is a job's position in its lifecycle:
//
//	queued -> running -> done | failed
//
// plus the terminal admission state rejected (queue full, draining).
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateRejected JobState = "rejected"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRejected
}

// RandomSpec asks the server to draw the true-value matrix uniformly
// from W using the job seed, exactly like dmw.RandomBids.
type RandomSpec struct {
	// Agents is n, the number of machines.
	Agents int `json:"agents"`
	// Tasks is m, the number of tasks (independent Vickrey auctions).
	Tasks int `json:"tasks"`
}

// JobSpec is the client-supplied description of one mechanism execution.
// Exactly one of Bids and Random must be set.
type JobSpec struct {
	// ID optionally names the job. Client-supplied IDs make submission
	// idempotent — re-submitting a spec with an ID the server already
	// holds returns the existing job instead of admitting a duplicate —
	// which is what lets the dmwgw gateway retry a submit against
	// another replica without double-running it, and what pins a job's
	// consistent-hash placement before the submit leaves the client.
	// Allowed: 1-64 chars of [A-Za-z0-9._:-]. Empty = server-assigned.
	ID string `json:"id,omitempty"`
	// Bids is the explicit true-value matrix (agent x task); every entry
	// must lie in W.
	Bids [][]int `json:"bids,omitempty"`
	// Random requests a random workload instead of explicit bids.
	Random *RandomSpec `json:"random,omitempty"`
	// W is the published bid set. Empty defaults to {1..4}.
	W []int `json:"w,omitempty"`
	// C is the published fault bound (default 0).
	C int `json:"c"`
	// Seed makes the job reproducible: the same spec and seed yield the
	// same outcome as a direct dmw.Run.
	Seed int64 `json:"seed"`
	// Parallelism optionally lowers this job's auction-level concurrency
	// below the server cap; 0 means "use the server cap".
	Parallelism int `json:"parallelism,omitempty"`
	// Record captures a verifiable transcript, retrievable from
	// GET /v1/jobs/{id}/transcript.
	Record bool `json:"record,omitempty"`
	// CountOps attaches per-agent group-operation counters to the result.
	CountOps bool `json:"count_ops,omitempty"`
	// LinkDelayMS emulates a WAN in real time: every agent-to-agent link
	// gets this one-way latency, and every protocol round genuinely
	// waits for its slowest in-flight message. The job's wall-clock run
	// time then approximates what agents separated by such links would
	// experience — a latency-bound (rather than CPU-bound) workload.
	// 0 (the default) disables emulation. Capped at 10 000 ms.
	LinkDelayMS float64 `json:"link_delay_ms,omitempty"`
	// Trace records protocol spans for this job (queue wait, per-auction
	// spans with per-phase children), retrievable as JSONL from
	// GET /v1/jobs/{id}/trace once the job is terminal. Off by default:
	// untraced jobs pay zero tracing cost.
	Trace bool `json:"trace,omitempty"`
	// RequestID is the correlation ID for this submission. The HTTP
	// layer stamps it from the X-Request-Id header (generating one when
	// the client sent none), it rides the journal record like every
	// other spec field, and it appears on the job view and on every log
	// line the job emits — the thread that ties a gateway access log to
	// the backend log to the job record.
	RequestID string `json:"request_id,omitempty"`
	// Tenant is the admission identity this job is charged against. The
	// HTTP layer stamps it from the X-Tenant-Id header when the spec
	// leaves it empty; unusable values fold into the default tenant
	// (tenant.CleanID). It rides the journal record, so recovery
	// re-reserves quota under the right identity.
	Tenant string `json:"tenant,omitempty"`
	// MaxPrice is an optional admission bid: when the current demand
	// price (see docs/TENANCY.md) exceeds it, the submission is shed
	// with 429 reason "price" instead of queuing. 0 means "pay any
	// price" — the job is never price-shed.
	MaxPrice float64 `json:"max_price,omitempty"`
}

// ErrInvalidSpec wraps every admission-time validation failure, so the
// HTTP layer can map it to 400 rather than 503.
var ErrInvalidSpec = errors.New("server: invalid job spec")

func invalidSpecf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// maxLinkDelayMS caps JobSpec.LinkDelayMS so a hostile spec cannot park
// a worker for minutes per round.
const maxLinkDelayMS = 10000

// validJobID reports whether a client-supplied job ID is admissible:
// 1-64 characters drawn from [A-Za-z0-9._:-]. The alphabet is URL-path
// safe (IDs appear verbatim in GET /v1/jobs/{id}).
func validJobID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '-':
		default:
			return false
		}
	}
	return true
}

// materialize validates the spec against the server limits and returns
// the concrete bid matrix.
func (sp *JobSpec) materialize(limits Limits) ([][]int, error) {
	if sp.ID != "" && !validJobID(sp.ID) {
		return nil, invalidSpecf("job id %q invalid (want 1-64 chars of [A-Za-z0-9._:-])", sp.ID)
	}
	if sp.LinkDelayMS < 0 || sp.LinkDelayMS > maxLinkDelayMS {
		return nil, invalidSpecf("link_delay_ms = %g outside [0, %d]", sp.LinkDelayMS, maxLinkDelayMS)
	}
	if sp.MaxPrice < 0 {
		return nil, invalidSpecf("max_price = %g negative", sp.MaxPrice)
	}
	// Canonicalize the tenant identity once, here, so admission, the
	// journal record, metrics labels, and event streams all agree.
	sp.Tenant = tenant.CleanID(sp.Tenant)
	if len(sp.W) == 0 {
		sp.W = []int{1, 2, 3, 4}
	}
	// Normalize W: bidcode requires a strictly ascending set, so sort
	// and deduplicate what the client sent.
	sp.W = normalizeW(sp.W)
	inW := make(map[int]bool, len(sp.W))
	for _, v := range sp.W {
		if v <= 0 {
			return nil, invalidSpecf("bid set W must be positive, got %d", v)
		}
		inW[v] = true
	}
	if sp.C < 0 {
		return nil, invalidSpecf("fault bound c = %d negative", sp.C)
	}
	if sp.Parallelism < 0 {
		return nil, invalidSpecf("parallelism = %d negative", sp.Parallelism)
	}

	var bids [][]int
	switch {
	case sp.Bids != nil && sp.Random != nil:
		return nil, invalidSpecf("bids and random are mutually exclusive")
	case sp.Random != nil:
		n, m := sp.Random.Agents, sp.Random.Tasks
		if n < 2 || m < 1 {
			return nil, invalidSpecf("random workload needs agents >= 2 and tasks >= 1, got n=%d m=%d", n, m)
		}
		bids = randomBids(n, m, sp.W, sp.Seed)
	case len(sp.Bids) > 0:
		bids = sp.Bids
	default:
		return nil, invalidSpecf("one of bids or random is required")
	}

	n := len(bids)
	if n < 2 {
		return nil, invalidSpecf("need at least 2 agents, got %d", n)
	}
	m := len(bids[0])
	if m < 1 {
		return nil, invalidSpecf("need at least 1 task")
	}
	if limits.MaxAgents > 0 && n > limits.MaxAgents {
		return nil, invalidSpecf("%d agents exceeds server limit %d", n, limits.MaxAgents)
	}
	if limits.MaxTasks > 0 && m > limits.MaxTasks {
		return nil, invalidSpecf("%d tasks exceeds server limit %d", m, limits.MaxTasks)
	}
	for i, row := range bids {
		if len(row) != m {
			return nil, invalidSpecf("ragged bid matrix at row %d", i)
		}
		for j, v := range row {
			if !inW[v] {
				return nil, invalidSpecf("bids[%d][%d] = %d not in W %v", i, j, v, sp.W)
			}
		}
	}
	// Check the paper's notation constraints (w_k < n-c+1, c < n, enough
	// evaluation points) now, so clients get a 400 instead of a job that
	// fails at run time.
	if err := (bidcode.Config{W: sp.W, C: sp.C, N: n}).Validate(); err != nil {
		return nil, invalidSpecf("%v", err)
	}
	return bids, nil
}

// normalizeW sorts the bid set ascending and removes duplicates.
func normalizeW(w []int) []int {
	out := append([]int(nil), w...)
	sort.Ints(out)
	dst := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// randomBids mirrors dmw.RandomBids so a random-workload job is
// reproducible by the public API with the same (n, m, w, seed).
func randomBids(n, m int, w []int, seed int64) [][]int {
	rng := mrand.New(mrand.NewSource(seed))
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, m)
		for j := range out[i] {
			out[i][j] = w[rng.Intn(len(w))]
		}
	}
	return out
}

// JobResult is the outcome of a completed job, shaped for JSON clients.
type JobResult struct {
	// Schedule[j] is the agent assigned task j, or -1 when the auction
	// aborted or the winner's payment was disputed.
	Schedule []int `json:"schedule"`
	// Payments[i] is the total payment issued to agent i.
	Payments []int64 `json:"payments"`
	// FirstPrice[j] / SecondPrice[j] are task j's auction prices
	// (the winner pays the second price, Vickrey).
	FirstPrice  []int64 `json:"first_price"`
	SecondPrice []int64 `json:"second_price"`
	// Utilities[i] is agent i's realized quasilinear utility.
	Utilities []int64 `json:"utilities"`
	// AbortedTasks lists auctions that reached no decision.
	AbortedTasks []int `json:"aborted_tasks,omitempty"`
	// MatchesCentralized reports whether the distributed outcome equals
	// the centralized MinWork reference on the same matrix.
	MatchesCentralized bool `json:"matches_centralized"`
	// Messages / WireBytes / Rounds aggregate communication cost.
	Messages  int64 `json:"messages"`
	WireBytes int64 `json:"wire_bytes"`
	Rounds    int64 `json:"rounds"`
	// GroupExp / GroupMul are total group operations over all agents
	// (present when the spec set count_ops).
	GroupExp uint64 `json:"group_exp,omitempty"`
	GroupMul uint64 `json:"group_mul,omitempty"`
	// GroupMultiExps / GroupMultiExpTerms count multi-exponentiation
	// invocations and the total terms they absorbed (present when the
	// spec set count_ops). Each absorbed term replaces one Exp+Mul pair
	// of the naive evaluation, so the pair quantifies how much of
	// Theorem 12's exponentiation budget the batched engine served.
	GroupMultiExps     uint64 `json:"group_multiexps,omitempty"`
	GroupMultiExpTerms uint64 `json:"group_multiexp_terms,omitempty"`
}

// Job is one tracked mechanism execution. ID, Spec, bids and submitted
// are fixed at admission and read without the lock; every other durable
// field is guarded by mu and written only by apply (record.go).
type Job struct {
	// ID is the server-assigned opaque identifier.
	ID string
	// Spec is the normalized client spec.
	Spec JobSpec

	bids      [][]int
	submitted time.Time
	// seg is the WAL segment holding the job's last journaled record.
	// Written and read only by the store, under store.mu.
	seg uint64

	mu         sync.Mutex
	state      JobState
	errMsg     string
	result     *JobResult
	transcript *protocol.Transcript
	started    time.Time
	finished   time.Time
	expires    time.Time
	done       chan struct{}
	// spans and events are diagnostics, not durable state.
	spans  []obs.Span
	events []tenant.Event
}

// randomID draws 8 random bytes behind prefix: a server-assigned job ID
// ("job-"; a collision within a TTL window is negligible, 2^-32 at
// ~10^5 live jobs) or a replica identity no data dir pins ("rep-").
func randomID(prefix string) (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: drawing a random %q id: %w", prefix, err)
	}
	return prefix + hex.EncodeToString(b[:]), nil
}

// Agents and Tasks report the job dimensions.
func (j *Job) Agents() int { return len(j.bids) }
func (j *Job) Tasks() int {
	if len(j.bids) == 0 {
		return 0
	}
	return len(j.bids[0])
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// WaitDone blocks until the job is terminal or the timeout elapses; it
// reports whether the job finished.
func (j *Job) WaitDone(timeout time.Duration) bool {
	if timeout <= 0 {
		select {
		case <-j.done:
			return true
		default:
			return false
		}
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-j.done:
		return true
	case <-t.C:
		return false
	}
}

// Result returns the completed outcome, or nil before completion.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Transcript returns the captured transcript (nil unless the spec set
// record and the job completed).
func (j *Job) Transcript() *protocol.Transcript {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.transcript
}

// setTrace attaches the recorded spans (worker-side, before the
// terminal record is applied). Traces are diagnostics, not state: they
// are not journaled and do not survive a restart.
func (j *Job) setTrace(spans []obs.Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.spans = spans
}

// Spans returns the recorded trace (nil unless the spec set trace and
// the job ran to a terminal state).
func (j *Job) Spans() []obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spans
}

// maxJobEvents caps a job's replay history. A normal lifecycle is ~10
// events (admitted, running, one per phase, terminal), so the cap only
// guards pathological cases; the terminal event is always kept so an
// SSE replay can end the stream.
const maxJobEvents = 128

// appendEvent records ev (already sequence-stamped by the hub) in the
// job's replay history, served to late SSE subscribers before the live
// stream.
func (j *Job) appendEvent(ev tenant.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) >= maxJobEvents-1 && !tenant.TerminalEvent(ev.Type) {
		return
	}
	j.events = append(j.events, ev)
}

// Events snapshots the job's event history in publish order.
func (j *Job) Events() []tenant.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]tenant.Event, len(j.events))
	copy(out, j.events)
	return out
}

// expired reports whether the job is terminal and past its retention.
func (j *Job) expired(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && now.After(j.expires)
}

// matchesResubmit reports whether this record satisfies an idempotent
// re-submission of its ID. It must still be live (not past its TTL)
// and must not be a backpressure rejection: a rejected record is a
// durable "refused, retry later" marker, and matching it would poison
// the ID — a client retrying after queue-full/draining would get the
// stale rejection back forever instead of running the job. Admission
// replaces rejected records (see store.PutBatchIfAbsent).
func (j *Job) matchesResubmit(now time.Time) bool {
	return j.State() != StateRejected && !j.expired(now)
}

// JobView is the JSON snapshot served by GET /v1/jobs/{id}.
type JobView struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	Agents int      `json:"agents"`
	Tasks  int      `json:"tasks"`
	Seed   int64    `json:"seed"`
	// RequestID is the correlation ID of the submission that admitted
	// this job (see JobSpec.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Tenant is the admission identity the job was charged against.
	Tenant string `json:"tenant,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	// QueueWaitMS and RunMS decompose the job latency.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`

	Result        *JobResult `json:"result,omitempty"`
	HasTranscript bool       `json:"has_transcript"`
	// HasTrace reports whether GET /v1/jobs/{id}/trace will serve spans.
	HasTrace bool `json:"has_trace,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:            j.ID,
		State:         j.state,
		Error:         j.errMsg,
		Agents:        len(j.bids),
		Seed:          j.Spec.Seed,
		RequestID:     j.Spec.RequestID,
		Tenant:        j.Spec.Tenant,
		SubmittedAt:   j.submitted.UTC().Format(time.RFC3339Nano),
		Result:        j.result,
		HasTranscript: j.transcript != nil,
		HasTrace:      len(j.spans) > 0,
	}
	if len(j.bids) > 0 {
		v.Tasks = len(j.bids[0])
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		v.QueueWaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			v.RunMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	return v
}
