// Package journal is an append-only, CRC32C-framed write-ahead log with
// segment rotation, caller-driven retirement of dead segments, and a
// crash-recovery path that tolerates a torn or corrupt final record.
//
// The journal is payload-agnostic: callers append Entry values (a one
// byte kind tag plus opaque bytes) and get the same entries back, in
// order, from recovery at the next Open. dmwd layers its job lifecycle
// records on top (see internal/server) and decides which segments are
// dead; nothing in this package knows about jobs.
//
// On-disk layout inside the data directory:
//
//	wal-0000000000000004.seg   frame stream (sealed segments, oldest
//	wal-0000000000000005.seg   first; the highest is active)
//
// A data dir written by an older build may also hold one
// snap-N.snap (the same frame stream: full state as of the start of
// segment N); recovery replays it before the segments >= N.
//
// Each frame is
//
//	+----------+----------+------+----------------+
//	| len u32  | crc u32  | kind | payload        |
//	| little-  | CRC32C   | 1B   | len-1 bytes    |
//	| endian   | over     |      |                |
//	|          | kind+pay |      |                |
//	+----------+----------+------+----------------+
//
// so a torn write (crash mid-frame) is detected by a short read or a
// CRC mismatch and recovery truncates the tail at the last good frame.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Entry is one journaled record: a caller-defined kind tag plus opaque
// payload bytes. The journal never inspects Data.
type Entry struct {
	Kind byte
	Data []byte
}

// frameHeaderLen is the fixed prefix: u32 length + u32 CRC32C.
const frameHeaderLen = 8

// MaxFrameBytes bounds a single frame body (kind + payload). A job
// record is a few KB; 16 MiB is a sanity guard so a corrupt length
// field cannot make recovery allocate gigabytes.
const MaxFrameBytes = 16 << 20

// castagnoli is the CRC32C table (the polynomial used by ext4, iSCSI,
// and most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. ErrShortFrame and ErrBadCRC mark a torn/corrupt
// record: recovery treats either at the log tail as a crash artifact
// (truncate and continue) and anywhere else as real corruption.
var (
	// ErrShortFrame means the buffer ends before the frame does
	// (truncated header or truncated body).
	ErrShortFrame = errors.New("journal: truncated frame")
	// ErrBadCRC means the body does not match its checksum.
	ErrBadCRC = errors.New("journal: frame CRC mismatch")
	// ErrFrameTooLarge means the length field exceeds MaxFrameBytes
	// (almost certainly a corrupt header).
	ErrFrameTooLarge = errors.New("journal: frame length exceeds limit")
	// ErrEmptyFrame means the length field is zero (a frame always
	// carries at least the kind byte).
	ErrEmptyFrame = errors.New("journal: zero-length frame")
)

// AppendFrame appends the encoded frame for e to dst and returns the
// extended slice. Framing never fails for payloads under MaxFrameBytes.
func AppendFrame(dst []byte, e Entry) []byte {
	n := 1 + len(e.Data)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, castagnoli, []byte{e.Kind})
	crc = crc32.Update(crc, castagnoli, e.Data)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, e.Kind)
	return append(dst, e.Data...)
}

// EncodeFrame encodes a single frame.
func EncodeFrame(e Entry) []byte {
	return AppendFrame(make([]byte, 0, frameHeaderLen+1+len(e.Data)), e)
}

// DecodeFrame decodes the first frame in b, returning the entry and the
// total bytes consumed. The returned Data aliases b; callers that
// retain it across buffer reuse must copy. Errors classify the failure
// for the recovery policy: ErrShortFrame and ErrBadCRC are the
// torn-tail signatures, ErrFrameTooLarge/ErrEmptyFrame mean a corrupt
// header.
func DecodeFrame(b []byte) (Entry, int, error) {
	if len(b) < frameHeaderLen {
		return Entry{}, 0, ErrShortFrame
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 {
		return Entry{}, 0, ErrEmptyFrame
	}
	if n > MaxFrameBytes {
		return Entry{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	body := b[frameHeaderLen:]
	if uint32(len(body)) < n {
		return Entry{}, 0, ErrShortFrame
	}
	body = body[:n]
	if crc32.Checksum(body, castagnoli) != want {
		return Entry{}, 0, ErrBadCRC
	}
	return Entry{Kind: body[0], Data: body[1:]}, frameHeaderLen + int(n), nil
}

// decodeAll walks a complete frame stream (e.g. a snapshot file, which
// is written atomically and therefore must decode fully). It returns
// the entries with Data copied out of b.
func decodeAll(b []byte) ([]Entry, error) {
	var out []Entry
	off := 0
	for off < len(b) {
		e, n, err := DecodeFrame(b[off:])
		if err != nil {
			return nil, fmt.Errorf("at offset %d: %w", off, err)
		}
		e.Data = append([]byte(nil), e.Data...)
		out = append(out, e)
		off += n
	}
	return out, nil
}
