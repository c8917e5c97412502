package group

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

func savedTables(t *testing.T, g *Group) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveTables(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refix recomputes the trailing CRC after a deliberate mutation, so a
// test can target the SEMANTIC checks (version, params, geometry,
// spot-checks) rather than tripping the checksum first.
func refix(b []byte) []byte {
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(body, crcTable))
	return b
}

func TestTablesRoundTrip(t *testing.T) {
	for _, preset := range []string{PresetTest64, PresetDemo128} {
		t.Run(preset, func(t *testing.T) {
			g := MustNew(MustPreset(preset))
			data := savedTables(t, g)

			loaded, err := LoadTables(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.BuiltFromArtifact() {
				t.Error("loaded group does not report BuiltFromArtifact")
			}
			if g.BuiltFromArtifact() {
				t.Error("freshly built group claims to come from an artifact")
			}
			if !loaded.Params().Equal(g.Params()) {
				t.Fatal("loaded parameters differ")
			}
			// The loaded tables must compute exactly like the built ones.
			f := loaded.Scalars()
			for _, i := range []int64{0, 1, 2, 12345, 999999} {
				x, r := f.FromInt64(i), f.FromInt64(i+7)
				if loaded.Commit(x, r).Cmp(g.Commit(x, r)) != 0 {
					t.Fatalf("Commit(%d) differs between loaded and built tables", i)
				}
				if loaded.Pow1(x).Cmp(g.Pow1(x)) != 0 || loaded.Pow2(r).Cmp(g.Pow2(r)) != 0 {
					t.Fatalf("Pow(%d) differs between loaded and built tables", i)
				}
			}
			// Save(Load(x)) must be byte-identical: the artifact is
			// canonical, so replicas can compare or relay it freely.
			if !bytes.Equal(savedTables(t, loaded), data) {
				t.Error("re-saving a loaded artifact changed its bytes")
			}
		})
	}
}

// TestTablesLoadRejectsCorruption: every corruption mode must yield an
// error wrapping ErrTablesArtifact — the caller's signal to rebuild —
// and never a usable-looking group.
func TestTablesLoadRejectsCorruption(t *testing.T) {
	g := MustNew(MustPreset(PresetTest64))
	data := savedTables(t, g)

	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:4] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped table bit", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"flipped checksum", func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF
			return b
		}},
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return refix(b)
		}},
		{"version mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:], tablesVersion+1)
			return refix(b)
		}},
		{"trailing bytes", func(b []byte) []byte {
			grown := append(b[:len(b)-4:len(b)-4], 0xAB, 0xCD)
			grown = append(grown, 0, 0, 0, 0)
			return refix(grown)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf := tt.mutate(append([]byte(nil), data...))
			loaded, err := LoadTables(bytes.NewReader(buf))
			if !errors.Is(err, ErrTablesArtifact) {
				t.Fatalf("error = %v, want ErrTablesArtifact", err)
			}
			if loaded != nil {
				t.Error("corrupt artifact returned a non-nil group")
			}
		})
	}
}

// TestTablesLoadRejectsWrongParams: an internally consistent artifact
// built over DIFFERENT parameters (the operator pointed a replica at
// the wrong file) is structurally valid but must not load as the
// expected group — the caller compares Params and rebuilds. This test
// pins that the artifact self-describes its parameters faithfully.
func TestTablesLoadRejectsWrongParams(t *testing.T) {
	g64 := MustNew(MustPreset(PresetTest64))
	data := savedTables(t, g64)
	loaded, err := LoadTables(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := MustPreset(PresetDemo128)
	if loaded.Params().Equal(want) {
		t.Fatal("Test64 artifact claims Demo128 parameters")
	}
}

// TestTablesSpotCheckCatchesCrossWiredTables: swap the z1 and z2 tables
// (CRC refixed) — the geometry is identical, so only the generator
// spot-checks stand between this artifact and silently swapped
// commitment bases.
func TestTablesSpotCheckCatchesCrossWiredTables(t *testing.T) {
	g := MustNew(MustPreset(PresetTest64))
	var buf bytes.Buffer
	buf.WriteString(tablesMagic)
	appendU16(&buf, tablesVersion)
	pr := g.Params()
	for _, v := range []interface{ Bytes() []byte }{pr.P, pr.Q, pr.Z1, pr.Z2} {
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
	writeTable(g.fb2.table) // swapped
	writeTable(g.fb1.table) // swapped
	writeTable(g.jb.table)
	appendU32(&buf, crc32.Checksum(buf.Bytes(), crcTable))

	if _, err := LoadTables(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrTablesArtifact) {
		t.Fatalf("cross-wired tables loaded: err = %v", err)
	}
}

// TestTablesBuildTimeReported: a fresh build reports a nonzero build
// time; artifacts report their (tiny) load time instead, which is what
// the dmwd_table_build_seconds gauge surfaces.
func TestTablesBuildTimeReported(t *testing.T) {
	g := MustNew(MustPreset(PresetTest64))
	if g.TableBuildTime() <= 0 {
		t.Error("fresh group reports no table build time")
	}
	loaded, err := LoadTables(bytes.NewReader(savedTables(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TableBuildTime() <= 0 {
		t.Error("loaded group reports no load time")
	}
}
