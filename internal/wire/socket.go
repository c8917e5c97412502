package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Socket frames carry the TCP fabrics' streams (packages relaynet and
// centralnet):
//
//	frame := len:u32 type:u8 body
//
// where len counts the type byte and the body, and each stream bounds it.

// WriteSocketFrame writes one socket frame, refusing one whose length
// would exceed limit.
func WriteSocketFrame(w io.Writer, ftype uint8, body []byte, limit int) error {
	if len(body)+1 > limit {
		return fmt.Errorf("wire: socket frame too large (%d bytes)", len(body))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)+1))
	hdr[4] = ftype
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadSocketFrame reads one socket frame, refusing a length outside
// [1, limit].
func ReadSocketFrame(r io.Reader, limit int) (uint8, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > uint32(limit) {
		return 0, nil, fmt.Errorf("wire: bad socket frame length %d", n)
	}
	body := make([]byte, n-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}
