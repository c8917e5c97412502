// Frames: the intra-fleet binary encoding on the fleet's existing HTTP
// endpoints (gateway→dmwd job submits, dmwd→dmwd replica write-through;
// the result frame has no endpoint left, see ResultItem) and of dmwd's
// job record. JSON is the external representation only; the fleet speaks
// frames to itself unconditionally — there is no negotiation and no
// JSON fallback between fleet members.
//
//	frame    := 'D' 'W' version:u8 type:u8 count:u32 item*   (version 2)
//	str      := len:u16 utf8
//	blob     := len:u32 bytes
//	i64      := 8 bytes big-endian (two's complement)
//	f64      := IEEE-754 bits, big-endian
//	flag     := u8 (0 or 1)
//	ints     := count:u16 i64*         vec := count:u16 bigint*   (bigint: wire.go)
//
//	job      := id:str rid:str tenant:str flags:u8
//	            c:i64 seed:i64 parallelism:i64 linkDelayMS:f64
//	            w:(count:u16 i64*)
//	            random? agents:u32 tasks:u32
//	            bids?   bids
//	bids     := rows:u16 (cols:u16 i64*)*
//	result   := status:u16 retryAfterSec:u32 errMsg:str body:blob
//	record   := id:str origin:str epoch:u64 payload:blob
//	jobrec   := id:str state:str error:str spec:job bids (unixSec:i64 nsec:u32){4}
//	            flag [schedule:ints aborted:ints (payments first second utilities):ints
//	                  matches:flag (messages wireBytes rounds):i64 (exp mul multiExps terms):u64]
//	            flag [slots:u32 words:u32 w:ints c:i64 n:i64 (count:u16 auction*)
//	                  (count:u16 (from:i64 payments:ints)*)]
//	auction  := task:i64 (count:u16 (sigma:u16 bigint{3 sigma})*) lambda:vec psi:vec
//	            (count:u16 (agent:i64 vec)*) barLambda:vec barPsi:vec
//	            task:i64 aborted:flag reason:str winner:i64 first:i64 second:i64
//
// A jobrec frame (type 4, one item) is dmwd's job record: the times
// are submitted, started, finished, expires; a count or sigma of 0xFFFF
// marks a nil list or a withheld commitment (docs/DURABILITY.md).
//
// The job codec round-trips the UNVALIDATED client spec (the server
// still runs the same validation it runs on JSON input), so integer
// fields are full-width i64 and bid matrices may be ragged. Decoded
// result/record items alias the input buffer (zero-copy bodies); the
// caller owns keeping the buffer alive until the items are consumed.
//
// The version byte is shared by every frame type and names the whole
// grammar: a change to any item layout bumps it, so a peer on another
// layout refuses the frame loudly instead of misreading its fields.
package wire

import (
	"errors"
	"fmt"
	"math"
)

// Content types of the fleet endpoints' frame bodies, and the
// capability header a frame-speaking server stamps on every response to
// a binary-typed request: a 400 carrying it is a real per-request error
// from a peer that understood the frame.
const (
	ContentTypeJobFrame    = "application/x-dmw-jobs"
	ContentTypeResultFrame = "application/x-dmw-results"
	ContentTypeRecordFrame = "application/x-dmw-records"
	HeaderWire             = "X-DMW-Wire"
	WireV1                 = "v1"
)

// Frame type tags (byte 3 of the header).
const (
	frameJobs      uint8 = 1
	frameResults   uint8 = 2
	frameRecords   uint8 = 3
	frameJobRecord uint8 = 4
)

const frameVersion uint8 = 2

// Job spec flag bits.
const (
	jfRandom uint8 = 1 << iota
	jfRecord
	jfCountOps
	jfTrace
)

// maxFrameItems bounds the decoded item count of any frame before the
// per-item size guards kick in; the HTTP layers apply their own
// (smaller) batch limits after decoding.
const maxFrameItems = 1 << 20

// Job is the frame-level mirror of server.JobSpec. The server owns the
// canonical spec schema; this struct exists so the codec does not
// import the server package (which imports this one). Conversions are
// field-for-field (server.SpecToWire / server.SpecFromWire) and pinned
// by a round-trip test against the JSON encoding.
type Job struct {
	ID           string
	Random       bool // true: RandomAgents/RandomTasks; false: Bids
	RandomAgents int
	RandomTasks  int
	Bids         [][]int
	W            []int
	C            int
	Seed         int64
	Parallelism  int
	Record       bool
	CountOps     bool
	Trace        bool
	LinkDelayMS  float64
	RequestID    string
	Tenant       string
}

// ResultItem is one per-spec outcome inside a batch-result frame: the
// HTTP status the item maps to on a single submit (202/400/429/503),
// the derived Retry-After for refusals, and the item's
// single-submit JSON body (a job view for 202/503, empty for 400/429 —
// a reader rebuilds the small error envelope from ErrMsg).
//
// No endpoint produces or reads this frame any more: dmwd's batch
// endpoint always answers JSON, and the gateway submit coalescer that
// asked for result frames is gone. The codec stays only because the
// benchmark harness's codec layer (wire.result_frame_rt_us) compiles
// against it; it goes when a [benchmark] PR drops that layer.
type ResultItem struct {
	Status        int
	RetryAfterSec int
	ErrMsg        string
	Body          []byte // aliases the decode input
}

// Record mirrors replica.Record for the write-through RPC.
type Record struct {
	ID      string
	Origin  string
	Epoch   uint64
	Payload []byte // aliases the decode input
}

// ErrFrame wraps every frame-decode failure so HTTP layers can answer
// a loud 400 ("the bytes claimed to be a frame and were not") rather
// than feeding them to a JSON decoder whose error would misattribute
// the corruption.
var ErrFrame = errors.New("wire: bad frame")

func framef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFrame, fmt.Sprintf(format, args...))
}

// --- encode -----------------------------------------------------------

func (a *appender) header(ftype uint8, count int) {
	a.u8('D')
	a.u8('W')
	a.u8(frameVersion)
	a.u8(ftype)
	a.u32(uint32(count))
}

func (a *appender) str(s string) {
	a.len16(len(s), "string field", "bytes")
	a.n += len(s)
	if !a.sizing {
		a.b = append(a.b, s...)
	}
}

func (a *appender) blob(b []byte) {
	a.u32(uint32(len(b)))
	a.n += len(b)
	if !a.sizing {
		a.b = append(a.b, b...)
	}
}

// len16 writes a length the frame carries in a u16, refusing one it
// cannot hold.
func (a *appender) len16(n int, what, unit string) {
	if n > math.MaxUint16 {
		a.fail(fmt.Errorf("wire: %s of %d %s exceeds frame limit", what, n, unit))
	}
	a.u16(uint16(n))
}

func (a *appender) i64(v int64) { a.u64(uint64(v)) }
func (a *appender) f64(v float64) {
	a.u64(math.Float64bits(v))
}

func (a *appender) job(j *Job) {
	a.str(j.ID)
	a.str(j.RequestID)
	a.str(j.Tenant)
	var flags uint8
	if j.Random {
		flags |= jfRandom
	}
	if j.Record {
		flags |= jfRecord
	}
	if j.CountOps {
		flags |= jfCountOps
	}
	if j.Trace {
		flags |= jfTrace
	}
	a.u8(flags)
	a.i64(int64(j.C))
	a.i64(j.Seed)
	a.i64(int64(j.Parallelism))
	a.f64(j.LinkDelayMS)
	a.len16(len(j.W), "w", "entries")
	for _, v := range j.W {
		a.i64(int64(v))
	}
	if j.Random {
		a.u32(uint32(int32(j.RandomAgents)))
		a.u32(uint32(int32(j.RandomTasks)))
		return
	}
	a.bids(j.Bids)
}

// bids writes a (possibly ragged) bid matrix row by row.
func (a *appender) bids(m [][]int) {
	a.len16(len(m), "bid matrix", "rows")
	for _, row := range m {
		a.len16(len(row), "bid row", "entries")
		for _, v := range row {
			a.i64(int64(v))
		}
	}
}

// EncodeJobFrame serializes a job-submit frame into one exactly-sized
// allocation (the same sizing-pass-then-infallible-fill discipline as
// EncodeMessage).
func EncodeJobFrame(jobs []Job) ([]byte, error) {
	if len(jobs) > maxFrameItems {
		return nil, fmt.Errorf("wire: %d jobs exceeds frame limit", len(jobs))
	}
	size := appender{sizing: true}
	size.header(frameJobs, len(jobs))
	for i := range jobs {
		size.job(&jobs[i])
	}
	if size.err != nil {
		return nil, size.err
	}
	a := appender{b: make([]byte, 0, size.n)}
	a.header(frameJobs, len(jobs))
	for i := range jobs {
		a.job(&jobs[i])
	}
	return a.b, nil
}

// AppendResultFrame appends a batch-result frame to dst (typically a
// pooled buffer — steady state re-encodes with zero allocations once
// the buffer has grown to the working batch size). Oversized ErrMsg
// strings are truncated rather than refused: they are diagnostics, and
// a result frame must always be encodable for outcomes the server
// already committed to.
func AppendResultFrame(dst []byte, items []ResultItem) []byte {
	a := appender{b: dst}
	a.header(frameResults, len(items))
	for i := range items {
		it := &items[i]
		a.u16(uint16(it.Status))
		ra := it.RetryAfterSec
		if ra < 0 {
			ra = 0
		}
		a.u32(uint32(ra))
		msg := it.ErrMsg
		if len(msg) > math.MaxUint16 {
			msg = msg[:math.MaxUint16]
		}
		a.str(msg)
		a.blob(it.Body)
	}
	return a.b
}

// AppendRecordFrame appends a replica-record frame to dst.
func AppendRecordFrame(dst []byte, recs []Record) ([]byte, error) {
	if len(recs) > maxFrameItems {
		return nil, fmt.Errorf("wire: %d records exceeds frame limit", len(recs))
	}
	a := appender{b: dst}
	a.header(frameRecords, len(recs))
	for i := range recs {
		a.str(recs[i].ID)
		a.str(recs[i].Origin)
		a.u64(recs[i].Epoch)
		a.blob(recs[i].Payload)
	}
	if a.err != nil {
		return nil, a.err
	}
	return a.b, nil
}

// --- decode -----------------------------------------------------------

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// str decodes a length-prefixed string (copying out of the input).
func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	if r.err {
		return ""
	}
	return string(b)
}

// blob decodes a length-prefixed byte field WITHOUT copying: the
// returned slice aliases the input buffer.
func (r *reader) blob() []byte {
	n := int(r.u32())
	b := r.take(n)
	if r.err {
		return nil
	}
	return b
}

// frameHeader validates the magic/version/type prefix and returns the
// item count.
func frameHeader(r *reader, want uint8) (int, error) {
	m0, m1 := r.u8(), r.u8()
	version, ftype := r.u8(), r.u8()
	count := int(r.u32())
	switch {
	case r.err:
		return 0, ErrTruncated
	case m0 != 'D' || m1 != 'W':
		return 0, framef("bad magic %#x %#x", m0, m1)
	case version != frameVersion:
		return 0, framef("unsupported frame version %d", version)
	case ftype != want:
		return 0, framef("frame type %d, want %d", ftype, want)
	case count > maxFrameItems:
		return 0, framef("%d items exceeds frame limit", count)
	}
	return count, nil
}

// job decodes one job item into j; a count the input cannot hold
// latches r.err before anything is allocated for it.
func (r *reader) job(j *Job) {
	j.ID = r.str()
	j.RequestID = r.str()
	j.Tenant = r.str()
	flags := r.u8()
	j.Random = flags&jfRandom != 0
	j.Record = flags&jfRecord != 0
	j.CountOps = flags&jfCountOps != 0
	j.Trace = flags&jfTrace != 0
	j.C = int(r.i64())
	j.Seed = r.i64()
	j.Parallelism = int(r.i64())
	j.LinkDelayMS = r.f64()
	nw := int(r.u16())
	if r.err || nw*8 > r.remaining() {
		r.err = true
		return
	}
	if nw > 0 {
		j.W = make([]int, nw)
		for k := range j.W {
			j.W[k] = int(r.i64())
		}
	}
	if j.Random {
		j.RandomAgents = int(int32(r.u32()))
		j.RandomTasks = int(int32(r.u32()))
		return
	}
	j.Bids = r.bids()
}

// bids reads a bid matrix; an empty one decodes as nil.
func (r *reader) bids() [][]int {
	rows := int(r.u16())
	if r.err || rows*2 > r.remaining() {
		r.err = true
		return nil
	}
	if rows == 0 {
		return nil
	}
	m := make([][]int, rows)
	for ri := range m {
		cols := int(r.u16())
		if r.err || cols*8 > r.remaining() {
			r.err = true
			return nil
		}
		m[ri] = make([]int, cols)
		for k := range m[ri] {
			m[ri][k] = int(r.i64())
		}
	}
	return m
}

// minJobItemSize is the floor footprint of one encoded job (all
// strings empty, W empty, explicit shape with zero bid rows); used to
// bound the item-slice preallocation against crafted counts.
const minJobItemSize = 3*2 + 1 + 4*8 + 2 + 2

// DecodeJobFrame parses a frame produced by EncodeJobFrame. Decoded
// jobs own their memory (strings and matrices are copied out), so the
// input buffer is free for reuse.
func DecodeJobFrame(b []byte) ([]Job, error) {
	r := &reader{b: b}
	count, err := frameHeader(r, frameJobs)
	if err != nil {
		return nil, err
	}
	if count*minJobItemSize > r.remaining() {
		return nil, ErrTruncated
	}
	jobs := make([]Job, count)
	for i := range jobs {
		if r.job(&jobs[i]); r.err {
			return nil, ErrTruncated
		}
	}
	if r.remaining() != 0 {
		return nil, framef("%d trailing bytes", r.remaining())
	}
	return jobs, nil
}

const minResultItemSize = 2 + 4 + 2 + 4

// DecodeResultFrame parses a batch-result frame. Item bodies alias b:
// the caller must keep b alive (and unmodified) until every body has
// been written out.
func DecodeResultFrame(b []byte) ([]ResultItem, error) {
	r := &reader{b: b}
	count, err := frameHeader(r, frameResults)
	if err != nil {
		return nil, err
	}
	if count*minResultItemSize > r.remaining() {
		return nil, ErrTruncated
	}
	items := make([]ResultItem, count)
	for i := range items {
		it := &items[i]
		it.Status = int(r.u16())
		it.RetryAfterSec = int(r.u32())
		it.ErrMsg = r.str()
		it.Body = r.blob()
		if r.err {
			return nil, ErrTruncated
		}
	}
	if r.remaining() != 0 {
		return nil, framef("%d trailing bytes", r.remaining())
	}
	return items, nil
}

const minRecordItemSize = 2 + 2 + 8 + 4

// DecodeRecordFrame parses a replica-record frame. Payloads alias b.
func DecodeRecordFrame(b []byte) ([]Record, error) {
	r := &reader{b: b}
	count, err := frameHeader(r, frameRecords)
	if err != nil {
		return nil, err
	}
	if count*minRecordItemSize > r.remaining() {
		return nil, ErrTruncated
	}
	recs := make([]Record, count)
	for i := range recs {
		rec := &recs[i]
		rec.ID = r.str()
		rec.Origin = r.str()
		rec.Epoch = r.u64()
		rec.Payload = r.blob()
		if r.err {
			return nil, ErrTruncated
		}
	}
	if r.remaining() != 0 {
		return nil, framef("%d trailing bytes", r.remaining())
	}
	return recs, nil
}
