package group

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"time"

	"dmw/internal/field"
	"dmw/internal/mont"
)

// This file serializes a Group's precomputed tables — the (z1, z2)
// fixed-base tables and the joint Shamir table — as a versioned binary
// artifact, the "warm precompute tier". Cold-starting a replica
// otherwise rebuilds all three tables from nothing (one modular
// multiplication per entry: thousands at 128-bit, growing with the
// square of the word count); a booting dmwd instead loads the artifact
// written by cmd/dmwparams (or fetched from a peer via the gateway's
// /v1/params-cache relay) and is ready in roughly the time it takes to
// read the file.
//
// The format is deliberately dumb: a magic/version header, the public
// parameters, the table geometry, every table entry as raw
// little-endian words (Montgomery domain, exactly as resident in
// memory), and a trailing CRC-32C over everything prior. Any structural
// or checksum mismatch yields an error wrapping ErrTablesArtifact so
// callers can distinguish "bad artifact, rebuild from params" from I/O
// failures. Loading additionally validates the parameters themselves
// and spot-checks the tables against the generators, so a syntactically
// valid artifact built for DIFFERENT parameters is rejected rather than
// silently producing wrong commitments.

// tablesMagic identifies the artifact; tablesVersion is bumped on any
// layout change (loaders reject other versions loudly).
const (
	tablesMagic   = "DMWTBL"
	tablesVersion = 1
)

// ErrTablesArtifact marks a corrupted, truncated, version-mismatched,
// or wrong-parameter tables artifact. Callers should treat it as "fall
// back to building tables from parameters" (and say so in a log line).
var ErrTablesArtifact = errors.New("group: invalid tables artifact")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SaveTables writes g's precomputed tables as a warm-boot artifact.
func SaveTables(w io.Writer, g *Group) error {
	var buf bytes.Buffer
	buf.WriteString(tablesMagic)
	appendU16(&buf, tablesVersion)
	for _, v := range []*big.Int{g.params.P, g.params.Q, g.params.Z1, g.params.Z2} {
		b := v.Bytes()
		appendU32(&buf, uint32(len(b)))
		buf.Write(b)
	}
	buf.WriteByte(fixedBaseWindow)
	appendU16(&buf, uint16(g.mont.Words()))
	writeTable := func(t [][][]uint64) {
		appendU32(&buf, uint32(len(t)))
		for _, row := range t {
			for _, e := range row {
				for _, word := range e {
					appendU64(&buf, word)
				}
			}
		}
	}
	writeTable(g.fb1.table)
	writeTable(g.fb2.table)
	writeTable(g.jb.table)
	appendU32(&buf, crc32.Checksum(buf.Bytes(), crcTable))
	_, err := w.Write(buf.Bytes())
	return err
}

// LoadTables reads an artifact written by SaveTables and returns a
// ready Group with TableBuildTime set to the (small) deserialization
// cost and BuiltFromArtifact reporting true. Errors from a bad artifact
// wrap ErrTablesArtifact; the caller is expected to rebuild from
// parameters instead.
func LoadTables(r io.Reader) (*Group, error) {
	t0 := time.Now()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("group: reading tables artifact: %w", err)
	}
	if len(data) < len(tablesMagic)+2+4 {
		return nil, fmt.Errorf("%w: truncated header", ErrTablesArtifact)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTablesArtifact)
	}
	c := cursor{data: body}
	if string(c.bytes(len(tablesMagic))) != tablesMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrTablesArtifact)
	}
	if v := c.u16(); v != tablesVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrTablesArtifact, v, tablesVersion)
	}
	ints := make([]*big.Int, 4)
	for i := range ints {
		n := int(c.u32())
		ints[i] = new(big.Int).SetBytes(c.bytes(n))
	}
	window := uint(c.u8())
	k := int(c.u16())
	if c.err {
		return nil, fmt.Errorf("%w: truncated parameters", ErrTablesArtifact)
	}
	pr := &Params{P: ints[0], Q: ints[1], Z1: ints[2], Z2: ints[3]}
	if err := pr.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTablesArtifact, err)
	}
	if window != fixedBaseWindow {
		return nil, fmt.Errorf("%w: window %d, want %d", ErrTablesArtifact, window, fixedBaseWindow)
	}
	f, err := field.New(pr.Q)
	if err != nil {
		return nil, fmt.Errorf("group: exponent field: %w", err)
	}
	m := mont.New(pr.P)
	if m.Words() != k {
		return nil, fmt.Errorf("%w: %d-word elements for a %d-word modulus", ErrTablesArtifact, k, m.Words())
	}
	numWindows := (pr.Q.BitLen() + fixedBaseWindow - 1) / fixedBaseWindow
	readTable := func(entries int) [][][]uint64 {
		if int(c.u32()) != numWindows {
			c.err = true
			return nil
		}
		t := make([][][]uint64, numWindows)
		for i := range t {
			row := make([][]uint64, entries)
			words := c.words(entries * k)
			if words == nil {
				c.err = true
				return nil
			}
			for d := range row {
				row[d] = words[d*k : (d+1)*k]
			}
			t[i] = row
		}
		return t
	}
	fb1 := &fixedBase{m: m, window: window, table: readTable(1 << fixedBaseWindow)}
	fb2 := &fixedBase{m: m, window: window, table: readTable(1 << fixedBaseWindow)}
	jb := &jointBase{m: m, window: window, table: readTable(1 << (2 * fixedBaseWindow))}
	if c.err {
		return nil, fmt.Errorf("%w: truncated or misshapen tables", ErrTablesArtifact)
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTablesArtifact, len(body)-c.off)
	}
	g := &Group{params: pr, scalars: f, mont: m, fb1: fb1, fb2: fb2, jb: jb, fromArtifact: true}
	if err := g.spotCheckTables(); err != nil {
		return nil, err
	}
	g.buildTime = time.Since(t0)
	return g, nil
}

// spotCheckTables verifies the loaded tables against the parameters:
// the CRC catches bit rot, but an artifact that is internally
// consistent yet built for other generators (an operator pointing a
// replica at the wrong file) must also fail loudly, not corrupt every
// commitment the replica ever makes. exp(1) exercises row 0; exp(q-1)
// multiplies through every table row.
func (g *Group) spotCheckTables() error {
	pr := g.params
	one := big.NewInt(1)
	qm1 := new(big.Int).Sub(pr.Q, one)
	checks := []struct {
		got, want *big.Int
	}{
		{g.fb1.exp(one), pr.Z1},
		{g.fb2.exp(one), pr.Z2},
		{g.fb1.exp(qm1), new(big.Int).Exp(pr.Z1, qm1, pr.P)},
		{g.fb2.exp(qm1), new(big.Int).Exp(pr.Z2, qm1, pr.P)},
		{g.jb.commit(one, one), new(big.Int).Mod(new(big.Int).Mul(pr.Z1, pr.Z2), pr.P)},
		{g.jb.commit(qm1, one), new(big.Int).Mod(new(big.Int).Mul(new(big.Int).Exp(pr.Z1, qm1, pr.P), pr.Z2), pr.P)},
	}
	for _, ch := range checks {
		if ch.got.Cmp(ch.want) != 0 {
			return fmt.Errorf("%w: tables do not match parameters", ErrTablesArtifact)
		}
	}
	return nil
}

// cursor is a bounds-checked little-endian reader over the artifact
// body; any overrun latches err instead of panicking on crafted input.
type cursor struct {
	data []byte
	off  int
	err  bool
}

func (c *cursor) bytes(n int) []byte {
	if c.err || n < 0 || c.off+n > len(c.data) {
		c.err = true
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u8() uint8 {
	b := c.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// words decodes n little-endian uint64 words into one flat slice.
func (c *cursor) words(n int) []uint64 {
	b := c.bytes(8 * n)
	if b == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func appendU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func appendU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func appendU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}
