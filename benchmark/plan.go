package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// opKind is what one plan entry asks the target to do.
type opKind uint8

const (
	// opJob submits one job and waits for its terminal result: the only
	// kind the closed-loop workloads use, and the kind op_latency_* is
	// computed over everywhere.
	opJob opKind = iota
	// opSSE submits one job and observes it over the SSE event stream.
	opSSE
	// opBatch submits batchSize jobs in one POST and waits for each.
	opBatch
	// opView / opTranscript read a finished job through the gateway.
	opView
	opTranscript
	// opDirectRead reads a finished job straight from the replica that
	// does NOT own it (served from its replica copy).
	opDirectRead
	// opResubmit re-posts the spec of an already-terminal job (idempotent:
	// the owner dedupes and answers with the stored job).
	opResubmit
	numKinds
)

var kindNames = [numKinds]string{"job", "sse", "batch8", "view", "transcript", "direct_read", "resubmit"}

func (k opKind) String() string { return kindNames[k] }

// carriesJob reports whether the op runs new auctions.
func (k opKind) carriesJob() bool { return k == opJob || k == opSSE || k == opBatch }

const (
	batchSize   = 8
	numTenants  = 3
	poolSize    = 64
	exactJobs   = 100 // transport.*_per_job is computed over the first exactJobs single jobs
	oracleEvery = 50  // one job in oracleEvery is re-derived; one transcript in oracleEvery audited
)

// mixPer100 is fleet-mixed-open's traffic mix: out of every 100 arrivals,
// exactly this many of each kind (order shuffled per block by the seed).
var mixPer100 = [numKinds]int{opJob: 30, opSSE: 5, opBatch: 5, opView: 25, opTranscript: 15, opDirectRead: 10, opResubmit: 10}

func mixBlock() []opKind {
	var block []opKind
	for k, c := range mixPer100 {
		for i := 0; i < c; i++ {
			block = append(block, opKind(k))
		}
	}
	return block
}

// planOp is one pre-generated operation. Nothing about an op is decided
// while the system is under test: a generator that adapts to server
// behaviour is a closed loop in disguise.
type planOp struct {
	Seq    int
	Kind   opKind
	ID     string // client-assigned job ID (batch items append ".k")
	Seed   int64  // job seed (batch item k uses Seed+k)
	Tenant int    // index into tenantIDs
	// Target is the earlier job a read or resubmit addresses (nil for the
	// other kinds). It is chosen at plan time among jobs due long enough ago
	// to have finished and recently enough to still be retained.
	Target *planOp
	// Exact marks the first exactJobs single jobs of the plan: the fixed
	// set the exact per-job counts (transport.*_per_job) are taken over.
	Exact bool
	// Due is the intended send time as an offset from the start of
	// warm-up (open loop only).
	Due time.Duration
}

// plan is everything a run will send, in order.
type plan struct {
	// Pool are the jobs submitted before warm-up so the first reads and
	// resubmits have finished targets (mixed workload only).
	Pool []planOp
	Ops  []planOp
}

// A read's target was due between targetMaxAge and targetMinAge before the
// read: a second of slack for it to have finished, and (with the mixed
// workload's ResultTTL) a second and a half before it is evicted.
const (
	targetMinAge = 1000 * time.Millisecond
	targetMaxAge = 2500 * time.Millisecond
)

// buildPlan derives the whole plan from (workload, seed, total): the same
// triple always yields byte-identical plans. total is the wall time the
// plan must cover (warm-up plus every measured window).
func buildPlan(w workload, seed int64, total time.Duration) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	newOp := func(seq int, kind opKind, prefix string) planOp {
		return planOp{
			Seq:    seq,
			Kind:   kind,
			ID:     fmt.Sprintf("%s%d-%d", prefix, seed, seq),
			Seed:   rng.Int63(),
			Tenant: seq % numTenants,
		}
	}
	if w.OpenRate <= 0 {
		n := int(math.Ceil(w.MaxRate * total.Seconds()))
		p.Ops = make([]planOp, n)
		for i := range p.Ops {
			p.Ops[i] = newOp(i, opJob, "c")
			p.Ops[i].Exact = i < exactJobs
		}
		return p
	}
	p.Pool = make([]planOp, poolSize)
	for i := range p.Pool {
		p.Pool[i] = newOp(i, opJob, "p")
	}
	n := int(math.Ceil(w.OpenRate * total.Seconds()))
	p.Ops = make([]planOp, 0, n+len(mixBlock()))
	var singles []int // indices of the opJob entries, in due order
	lo := 0           // first single still young enough to be a target
	block := mixBlock()
	for len(p.Ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			op := newOp(len(p.Ops), kind, "o")
			op.Due = time.Duration(float64(op.Seq) / w.OpenRate * float64(time.Second))
			switch {
			case kind == opJob:
				op.Exact = len(singles) < exactJobs
				singles = append(singles, op.Seq)
			case !kind.carriesJob():
				for lo < len(singles) && p.Ops[singles[lo]].Due < op.Due-targetMaxAge {
					lo++
				}
				hi := lo
				for hi < len(singles) && p.Ops[singles[hi]].Due <= op.Due-targetMinAge {
					hi++
				}
				if hi > lo {
					op.Target = &p.Ops[singles[lo+rng.Intn(hi-lo)]]
				} else {
					op.Target = &p.Pool[rng.Intn(poolSize)]
				}
			}
			p.Ops = append(p.Ops, op) // never reallocates: Target pointers stay valid
		}
	}
	p.Ops = p.Ops[:n]
	return p
}

// Bytes is the plan's canonical serialization, for the determinism check.
func (p *plan) Bytes() []byte {
	var out []byte
	put := func(ops []planOp) {
		for _, op := range ops {
			out = binary.BigEndian.AppendUint32(out, uint32(op.Seq))
			out = append(out, byte(op.Kind), byte(op.Tenant))
			if op.Exact {
				out = append(out, 1)
			}
			if op.Target != nil {
				out = append(out, op.Target.ID...)
			}
			out = binary.BigEndian.AppendUint64(out, uint64(op.Seed))
			out = binary.BigEndian.AppendUint64(out, uint64(op.Due))
			out = append(out, op.ID...)
			out = append(out, 0)
		}
	}
	put(p.Pool)
	put(p.Ops)
	return out
}
