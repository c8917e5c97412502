package wire

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"time"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/payment"
)

// JobRecord is the frame-level mirror of dmwd's job record (the WAL
// entry and the replica payload), as Job is of its spec.
type JobRecord struct {
	ID, State, Error string
	Spec             Job
	Bids             [][]int
	Result           *Result
	Transcript       *dmw.Transcript

	Submitted, Started, Finished, Expires time.Time
}

// Result mirrors server.JobResult field for field and in the same
// order, so the server converts one into the other with a plain type
// conversion; a field added to one and not the other fails to compile.
type Result struct {
	Schedule                                               []int
	Payments, FirstPrice, SecondPrice, Utilities           []int64
	AbortedTasks                                           []int
	MatchesCentralized                                     bool
	Messages, WireBytes, Rounds                            int64
	GroupExp, GroupMul, GroupMultiExps, GroupMultiExpTerms uint64
}

// EncodeRecord serializes a job-record frame into one exactly-sized
// allocation. The sizing pass also totals the transcript's integer
// slots and words, which the fill writes ahead of the transcript.
func EncodeRecord(rec *JobRecord) ([]byte, error) {
	size := appender{sizing: true}
	if size.record(rec, 0, 0); size.err != nil {
		return nil, size.err
	}
	if uint64(size.n) > math.MaxUint32 { // and so are the transcript's totals
		return nil, fmt.Errorf("wire: record %s of %d bytes exceeds frame limit", rec.ID, size.n)
	}
	a := appender{b: make([]byte, 0, size.n)}
	a.record(rec, size.vals, size.words)
	return a.b, nil
}

func (a *appender) record(rec *JobRecord, vals, words int) {
	a.header(frameJobRecord, 1)
	a.str(rec.ID)
	a.str(rec.State)
	a.str(rec.Error)
	a.job(&rec.Spec)
	a.bids(rec.Bids)
	for _, t := range [...]time.Time{rec.Submitted, rec.Started, rec.Finished, rec.Expires} {
		// Unix seconds, not UnixNano: the zero time (year 1) is outside
		// UnixNano's range, and an unset time must decode as the zero time.
		a.i64(t.Unix())
		a.u32(uint32(t.Nanosecond()))
	}
	a.flag(rec.Result != nil)
	if res := rec.Result; res != nil {
		ints(a, res.Schedule)
		ints(a, res.AbortedTasks)
		for _, v := range [...][]int64{res.Payments, res.FirstPrice, res.SecondPrice, res.Utilities} {
			ints(a, v)
		}
		a.flag(res.MatchesCentralized)
		for _, v := range [...]uint64{uint64(res.Messages), uint64(res.WireBytes), uint64(res.Rounds),
			res.GroupExp, res.GroupMul, res.GroupMultiExps, res.GroupMultiExpTerms} {
			a.u64(v)
		}
	}
	a.flag(rec.Transcript != nil)
	if rec.Transcript != nil {
		a.transcript(rec.Transcript, vals, words)
	}
}

func (a *appender) flag(on bool) {
	var b uint8
	if on {
		b = 1
	}
	a.u8(b)
}

// length writes a list's length; nilLen marks a nil list, so nil and
// empty round-trip as themselves.
func (a *appender) length(n int, isNil bool) {
	if isNil {
		a.u16(nilLen)
		return
	}
	a.count(n, "list")
}

func ints[T int | int64](a *appender, vs []T) {
	a.length(len(vs), vs == nil)
	for _, v := range vs {
		a.i64(int64(v))
	}
}

func (a *appender) vec(vs []*big.Int) {
	a.length(len(vs), vs == nil)
	a.bigs(vs...)
}

func (a *appender) transcript(tr *dmw.Transcript, vals, words int) {
	a.u32(uint32(vals))
	a.u32(uint32(words))
	ints(a, tr.Bid.W)
	a.i64(int64(tr.Bid.C))
	a.i64(int64(tr.Bid.N))
	a.length(len(tr.Auctions), tr.Auctions == nil)
	for _, at := range tr.Auctions {
		if at == nil {
			a.fail(fmt.Errorf("wire: nil auction transcript"))
			return
		}
		a.i64(int64(at.Task))
		a.length(len(at.Commitments), at.Commitments == nil)
		for _, c := range at.Commitments {
			if c == nil {
				a.u16(nilLen) // withheld
				continue
			}
			if len(c.Q) != len(c.O) || len(c.R) != len(c.O) {
				a.fail(fmt.Errorf("wire: ragged commitment vectors"))
			}
			a.count(len(c.O), "commitment vector")
			a.bigs(c.O...)
			a.bigs(c.Q...)
			a.bigs(c.R...)
		}
		a.vec(at.Lambda)
		a.vec(at.Psi)
		// Ascending agent order, so equal records encode to equal bytes.
		a.length(len(at.Disclosures), at.Disclosures == nil)
		var stack [16]int
		agents := stack[:0]
		for k := range at.Disclosures {
			agents = append(agents, k)
		}
		slices.Sort(agents)
		for _, k := range agents {
			a.i64(int64(k))
			a.vec(at.Disclosures[k])
		}
		a.vec(at.BarLambda)
		a.vec(at.BarPsi)
		o := &at.Claimed
		a.i64(int64(o.Task))
		a.flag(o.Aborted)
		a.str(o.AbortReason)
		for _, v := range [...]int{o.Winner, o.FirstPrice, o.SecondPrice} {
			a.i64(int64(v))
		}
	}
	a.length(len(tr.Claims), tr.Claims == nil)
	for _, c := range tr.Claims {
		a.i64(int64(c.From))
		ints(a, c.Payments)
	}
}

// DecodeRecord parses a frame produced by EncodeRecord. The record owns
// its memory: the transcript's integers are carved from one header, one
// pointer and one word slab, whose sizes the frame declares and the
// decoder checks against the bytes left before allocating them.
func DecodeRecord(b []byte) (JobRecord, error) {
	var rec JobRecord
	r := &reader{b: b}
	count, err := frameHeader(r, frameJobRecord)
	if err != nil {
		return rec, err
	}
	if count != 1 {
		return rec, framef("record frame of %d items, want 1", count)
	}
	rec.ID, rec.State, rec.Error = r.str(), r.str(), r.str()
	r.job(&rec.Spec)
	rec.Bids = r.bids()
	for _, t := range [...]*time.Time{&rec.Submitted, &rec.Started, &rec.Finished, &rec.Expires} {
		sec, nsec := r.i64(), r.u32()
		r.err = r.err || nsec >= 1e9
		*t = time.Unix(sec, int64(nsec)).UTC() // one location, so decoded records compare exactly
	}
	if r.flag() {
		res := &Result{Schedule: readInts[int](r), AbortedTasks: readInts[int](r)}
		for _, v := range [...]*[]int64{&res.Payments, &res.FirstPrice, &res.SecondPrice, &res.Utilities} {
			*v = readInts[int64](r)
		}
		res.MatchesCentralized = r.flag()
		res.Messages, res.WireBytes, res.Rounds = r.i64(), r.i64(), r.i64()
		res.GroupExp, res.GroupMul, res.GroupMultiExps, res.GroupMultiExpTerms = r.u64(), r.u64(), r.u64(), r.u64()
		rec.Result = res
	}
	if r.flag() {
		rec.Transcript = r.transcript()
	}
	switch {
	case r.err:
		return JobRecord{}, ErrTruncated
	case r.remaining() != 0:
		return JobRecord{}, framef("%d trailing bytes", r.remaining())
	}
	return rec, nil
}

func (r *reader) flag() bool {
	v := r.u8()
	r.err = r.err || v > 1
	return v == 1
}

// length reads a list's length, each element at least min bytes: -1 for
// nil, and for a length the bytes left cannot hold (latching r.err).
func (r *reader) length(min int) int {
	n := int(r.u16())
	switch {
	case r.err || n == nilLen:
		return -1
	case n*min > r.remaining():
		r.err = true
		return -1
	}
	return n
}

func readInts[T int | int64](r *reader) []T {
	n := r.length(8)
	if n < 0 {
		return nil
	}
	vs := make([]T, n)
	for i := range vs {
		vs[i] = T(r.i64())
	}
	return vs
}

const wordBytes = bits.UintSize / 8

// minAuctionSize is the floor footprint of one encoded auction: its
// task, six nil lists and the claimed outcome.
const minAuctionSize = 8 + 6*2 + 8 + 1 + 2 + 3*8

func (r *reader) transcript() *dmw.Transcript {
	vals, words := int64(r.u32()), int64(r.u32())
	// A slot takes at least its 2-byte length, a value of k bytes at
	// most k/8+1 words.
	if rem := int64(r.remaining()); r.err || vals > rem/2 || words > vals+rem/8 {
		r.err = true
		return nil
	}
	r.ints, r.ptrs, r.words = make([]big.Int, vals), make([]*big.Int, vals), make([]big.Word, words*8/wordBytes)
	tr := &dmw.Transcript{Bid: bidcode.Config{W: readInts[int](r), C: int(r.i64()), N: int(r.i64())}}
	if n := r.length(minAuctionSize); n >= 0 {
		tr.Auctions = make([]*dmw.AuctionTranscript, n)
	}
	auctions := make([]dmw.AuctionTranscript, len(tr.Auctions))
	for i := 0; i < len(auctions) && !r.err; i++ {
		at := &auctions[i]
		tr.Auctions[i] = at
		at.Task = int(r.i64())
		if n := r.length(2); n >= 0 {
			at.Commitments = make([]*commit.Commitments, n)
			cs := make([]commit.Commitments, n)
			for k := 0; k < n && !r.err; k++ {
				if sigma := int(r.u16()); sigma != nilLen { // else withheld
					if vs := r.vector(3 * sigma); !r.err {
						cs[k] = commit.Commitments{O: vs[:sigma:sigma], Q: vs[sigma : 2*sigma : 2*sigma], R: vs[2*sigma:]}
						at.Commitments[k] = &cs[k]
					}
				}
			}
		}
		at.Lambda, at.Psi = r.vec(), r.vec()
		if n := r.length(8 + 2); n >= 0 {
			at.Disclosures = make(map[int][]*big.Int, n)
			for k, prev := 0, 0; k < n && !r.err; k++ {
				agent := int(r.i64())
				r.err = r.err || k > 0 && agent <= prev // not the ascending order written
				at.Disclosures[agent], prev = r.vec(), agent
			}
		}
		at.BarLambda, at.BarPsi = r.vec(), r.vec()
		at.Claimed = dmw.AuctionOutcome{Task: int(r.i64()), Aborted: r.flag(), AbortReason: r.str(),
			Winner: int(r.i64()), FirstPrice: int(r.i64()), SecondPrice: int(r.i64())}
	}
	if n := r.length(8 + 2); n >= 0 && !r.err {
		tr.Claims = make([]payment.Claim, n)
		for i := range tr.Claims {
			tr.Claims[i] = payment.Claim{From: int(r.i64()), Payments: readInts[int64](r)}
		}
	}
	return tr
}

// vec reads a nil-marked vector of integers (see vector).
func (r *reader) vec() []*big.Int {
	if n := r.length(2); n >= 0 {
		return r.vector(n)
	}
	return nil
}

// vector reads n integers into the next n pointer slots, each value's
// header and words cut from the header and word slabs; more than the
// frame declared latches r.err.
func (r *reader) vector(n int) []*big.Int {
	if r.err || n > len(r.ptrs) {
		r.err = true
		return nil
	}
	vs := r.ptrs[:n:n]
	r.ptrs = r.ptrs[n:]
	for i := range vs {
		k := r.u16()
		if r.err || k == nilLen {
			continue
		}
		b := r.take(int(k))
		w := (len(b) + wordBytes - 1) / wordBytes
		if r.err || len(r.ints) == 0 || w > len(r.words) {
			r.err = true
			return nil
		}
		vs[i] = r.ints[0].SetBits(r.words[:0:w]).SetBytes(b)
		r.ints, r.words = r.ints[1:], r.words[w:]
	}
	return vs
}
