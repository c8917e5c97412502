// Package wire implements a compact binary encoding for DMW protocol
// messages, used by the TCP deployment (package relaynet) to ship
// messages between agent processes. The format is deliberately simple
// and self-contained:
//
//	message  := from:i32 to:i32 kind:u8 task:i32 ptype:u8 body
//	bigint   := len:u16 bytes            (len 0xFFFF encodes nil)
//	vector   := count:u16 bigint*
//	share    := bigint{e f g h}
//	commits  := sigma:u16 bigint{O_1..O_s Q_1..Q_s R_1..R_s}
//	pair     := bigint{lambda psi}
//	claims   := count:u16 i64*
//	abort    := len:u16 utf8
//
// All integers are big-endian. Every protocol value is a residue mod p,
// so magnitudes are bounded by the group size and signs never occur.
//
// The codec is allocation-frugal: EncodeMessage sizes the message
// exactly in a counting pass, allocates ONE buffer, and fills big.Int bytes in place
// (big.Int.FillBytes into the tail — no intermediate Bytes() copies);
// DecodeMessage walks an index cursor over the input and materializes
// each payload's big.Ints from one header, one pointer and one word
// slab, calling SetBytes directly on subslices of the input. Decoded
// values never alias the input buffer (SetBytes copies into the slab's
// words), so callers are free to reuse or mutate b after decoding.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"dmw/internal/bidcode"
	"dmw/internal/commit"
	"dmw/internal/dmw"
	"dmw/internal/transport"
)

// Payload type tags.
const (
	tShare uint8 = iota + 1
	tCommitments
	tLambdaPsi
	tDisclosure
	tSecondPrice
	tPaymentClaim
	tAbort
	tNone // message with no payload
)

const nilLen = 0xFFFF

// headerSize covers from:i32 to:i32 kind:u8 task:i32 ptype:u8.
const headerSize = 4 + 4 + 1 + 4 + 1

// ErrTruncated is returned when the input ends before the structure does.
var ErrTruncated = errors.New("wire: truncated message")

// appender appends big-endian fields to b. EncodeMessage runs it twice
// over one message: a sizing pass that validates the message and only
// sums its size in n, then a filling pass into a buffer of exactly that
// size. vals and words total the integer slots written and the 64-bit
// words of their magnitudes (a record's transcript carries them).
type appender struct {
	b           []byte
	n           int
	vals, words int
	sizing      bool
	err         error
}

func (a *appender) u8(v byte) {
	a.n++
	if !a.sizing {
		a.b = append(a.b, v)
	}
}

func (a *appender) u16(v uint16) {
	a.n += 2
	if !a.sizing {
		a.b = binary.BigEndian.AppendUint16(a.b, v)
	}
}

func (a *appender) u32(v uint32) {
	a.n += 4
	if !a.sizing {
		a.b = binary.BigEndian.AppendUint32(a.b, v)
	}
}

func (a *appender) u64(v uint64) {
	a.n += 8
	if !a.sizing {
		a.b = binary.BigEndian.AppendUint64(a.b, v)
	}
}

// fail latches the first encoding error.
func (a *appender) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// count writes a count that must stay below nilLen.
func (a *appender) count(n int, what string) {
	if n >= nilLen {
		a.fail(fmt.Errorf("wire: %s too long (%d)", what, n))
	}
	a.u16(uint16(n))
}

// big writes v's length-prefixed bytes directly into the buffer tail.
func (a *appender) big(v *big.Int) {
	a.vals++
	if v == nil {
		a.u16(nilLen)
		return
	}
	n := (v.BitLen() + 7) / 8
	switch {
	case a.err != nil:
	case v.Sign() < 0:
		a.err = fmt.Errorf("wire: negative value %v", v)
	case n >= nilLen:
		a.err = fmt.Errorf("wire: value too large (%d bytes)", n)
	}
	a.u16(uint16(n))
	a.n += n
	a.words += (n + 7) / 8
	if !a.sizing {
		start := len(a.b)
		a.b = a.b[:start+n]
		v.FillBytes(a.b[start : start+n])
	}
}

func (a *appender) bigs(vs ...*big.Int) {
	for _, v := range vs {
		a.big(v)
	}
}

// message writes m. The engine sends five payloads as pointers (see
// package dmw), the form DecodeMessage returns; their value forms encode
// the same.
func (a *appender) message(m transport.Message) {
	a.u32(uint32(int32(m.From)))
	a.u32(uint32(int32(m.To)))
	a.u8(uint8(m.Kind))
	a.u32(uint32(int32(m.Task)))
	switch p := m.Payload.(type) {
	case nil:
		a.u8(tNone)
	case dmw.SharePayload:
		a.share(&p)
	case *dmw.SharePayload:
		a.share(p)
	case dmw.CommitmentsPayload:
		if p.C == nil {
			a.err = errors.New("wire: nil commitments payload")
			return
		}
		sigma := p.C.Sigma()
		if len(p.C.Q) != sigma || len(p.C.R) != sigma {
			a.err = errors.New("wire: ragged commitment vectors")
			return
		}
		a.u8(tCommitments)
		a.count(sigma, "commitment vector")
		a.bigs(p.C.O...)
		a.bigs(p.C.Q...)
		a.bigs(p.C.R...)
	case dmw.LambdaPsiPayload:
		a.pair(tLambdaPsi, p.Lambda, p.Psi)
	case *dmw.LambdaPsiPayload:
		a.pair(tLambdaPsi, p.Lambda, p.Psi)
	case dmw.DisclosurePayload:
		a.disclosure(p.F)
	case *dmw.DisclosurePayload:
		a.disclosure(p.F)
	case dmw.SecondPricePayload:
		a.pair(tSecondPrice, p.Lambda, p.Psi)
	case *dmw.SecondPricePayload:
		a.pair(tSecondPrice, p.Lambda, p.Psi)
	case dmw.PaymentClaimPayload:
		a.claims(p.Payments)
	case *dmw.PaymentClaimPayload:
		a.claims(p.Payments)
	case dmw.AbortPayload:
		a.u8(tAbort)
		a.count(len(p.Reason), "abort reason")
		a.n += len(p.Reason)
		if !a.sizing {
			a.b = append(a.b, p.Reason...)
		}
	default:
		a.err = fmt.Errorf("wire: unsupported payload type %T", m.Payload)
	}
}

func (a *appender) share(p *dmw.SharePayload) {
	a.u8(tShare)
	a.bigs(p.Share.E, p.Share.F, p.Share.G, p.Share.H)
}

func (a *appender) pair(tag uint8, lambda, psi *big.Int) {
	a.u8(tag)
	a.bigs(lambda, psi)
}

func (a *appender) disclosure(f []*big.Int) {
	a.u8(tDisclosure)
	a.count(len(f), "vector")
	a.bigs(f...)
}

func (a *appender) claims(ps []int64) {
	a.u8(tPaymentClaim)
	a.count(len(ps), "claim vector")
	for _, v := range ps {
		a.u64(uint64(v))
	}
}

// EncodeMessage serializes a protocol message into one exactly-sized
// allocation.
func EncodeMessage(m transport.Message) ([]byte, error) {
	size := appender{sizing: true}
	if size.message(m); size.err != nil {
		return nil, size.err
	}
	a := appender{b: make([]byte, 0, size.n)}
	a.message(m)
	return a.b, nil
}

// reader is a bounds-checked big-endian cursor over the input; any
// overrun latches err instead of panicking on crafted bytes.
type reader struct {
	b   []byte
	off int
	err bool
	// ints, ptrs and words are the slabs integers are decoded into
	// (see vector).
	ints  []big.Int
	ptrs  []*big.Int
	words []big.Word
}

func (r *reader) take(n int) []byte {
	if r.err || n < 0 || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) i32() int32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int32(binary.BigEndian.Uint32(b))
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// values reads n integers into slabs of their own: n headers and
// pointer slots, and words enough for any n values in the bytes left.
func (r *reader) values(n int) []*big.Int {
	if r.err || n*2 > r.remaining() {
		r.err = true
		return nil
	}
	r.ints, r.ptrs, r.words = make([]big.Int, n), make([]*big.Int, n), make([]big.Word, r.remaining()/wordBytes+n)
	return r.vector(n)
}

// DecodeMessage parses a message produced by EncodeMessage.
func DecodeMessage(b []byte) (transport.Message, error) {
	var m transport.Message
	r := &reader{b: b}
	from, to := r.i32(), r.i32()
	kind := r.u8()
	task := r.i32()
	ptype := r.u8()
	if r.err {
		return m, ErrTruncated
	}
	m.From, m.To, m.Kind, m.Task = int(from), int(to), transport.Kind(kind), int(task)

	switch ptype {
	case tNone:
		m.Payload = nil
	case tShare:
		if vs := r.values(4); !r.err {
			m.Payload = &dmw.SharePayload{Share: bidcode.Share{E: vs[0], F: vs[1], G: vs[2], H: vs[3]}}
		}
	case tCommitments:
		sigma := int(r.u16())
		if vs := r.values(3 * sigma); !r.err {
			m.Payload = dmw.CommitmentsPayload{C: &commit.Commitments{O: vs[:sigma:sigma], Q: vs[sigma : 2*sigma : 2*sigma], R: vs[2*sigma:]}}
		}
	case tLambdaPsi:
		if vs := r.values(2); !r.err {
			m.Payload = &dmw.LambdaPsiPayload{Lambda: vs[0], Psi: vs[1]}
		}
	case tSecondPrice:
		if vs := r.values(2); !r.err {
			m.Payload = &dmw.SecondPricePayload{Lambda: vs[0], Psi: vs[1]}
		}
	case tDisclosure:
		if vs := r.values(int(r.u16())); !r.err {
			m.Payload = &dmw.DisclosurePayload{F: vs}
		}
	case tPaymentClaim:
		n := int(r.u16())
		if r.err || n*8 > r.remaining() {
			return m, ErrTruncated
		}
		ps := make([]int64, n)
		for i := range ps {
			ps[i] = int64(r.u64())
		}
		if r.err {
			return m, ErrTruncated
		}
		m.Payload = &dmw.PaymentClaimPayload{Payments: ps}
	case tAbort:
		n := int(r.u16())
		s := r.take(n)
		if r.err {
			return m, ErrTruncated
		}
		m.Payload = dmw.AbortPayload{Reason: string(s)}
	default:
		return m, fmt.Errorf("wire: unknown payload type %d", ptype)
	}
	if r.err {
		return m, ErrTruncated
	}
	if r.remaining() != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes", r.remaining())
	}
	return m, nil
}
