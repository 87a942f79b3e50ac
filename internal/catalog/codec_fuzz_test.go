package catalog

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/geom"
)

// shapeHead is the envelope length geodb puts before an object's attribute
// values: tag, OID, schema and class.
const shapeHead = 4

// FuzzDecodeRecordShape checks DecodeRecordShape against DecodeRecord on
// arbitrary bytes: it fails exactly when DecodeRecord fails, and otherwise
// returns DecodeRecord's value count, its first shapeHead values and the
// first geometry-kind value after them.
func FuzzDecodeRecordShape(f *testing.F) {
	envelope := []Value{IntVal(1), IntVal(42), TextVal("phone_net"), TextVal("Pole")}
	payloads := [][]Value{
		{IntVal(-7), FloatVal(3.25), TextVal("concrete"), BoolVal(true), RefVal(99), Null},
		{TupleVal(TextVal("wood"), FloatVal(0.3), FloatVal(9.5)), GeomVal(geom.Pt(10, 20)),
			BitmapVal(make([]byte, 64)), TextVal("installed 1995")},
		{GeomVal(geom.LineString{geom.Pt(0, 0), geom.Pt(5, 5)})},
		{GeomVal(geom.Polygon{
			Outer: geom.Ring{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4)},
			Holes: []geom.Ring{{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(2, 2)}},
		})},
		{GeomVal(geom.MultiPoint{geom.Pt(1, 1), geom.Pt(2, 2)}), GeomVal(geom.R(0, 0, 3, 3))},
		{Null, GeomVal(geom.R(0, 0, 3, 3))},
		{GeomVal(nil), GeomVal(geom.Pt(1, 1))},
		{TextVal("no geometry"), BitmapVal([]byte{0xde, 0xad})},
		{},
	}
	for _, p := range payloads {
		data, err := EncodeRecord(append(append([]Value(nil), envelope...), p...))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	short, err := EncodeRecord(envelope[:2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)
	// A multipoint length whose byte size overflows uint64.
	f.Add(binary.AppendUvarint([]byte{1, byte(KindGeometry), byte(geom.TypeMultiPoint)}, 1<<60))

	f.Fuzz(func(t *testing.T, data []byte) {
		all, werr := DecodeRecord(data)
		head := make([]Value, shapeHead)
		n, g, err := DecodeRecordShape(data, head)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeRecordShape error %v, DecodeRecord error %v", err, werr)
		}
		if err != nil {
			return
		}
		if n != len(all) {
			t.Fatalf("count %d, DecodeRecord decoded %d values", n, len(all))
		}
		k := min(n, shapeHead)
		if got, want := mustEncode(t, head[:k]), mustEncode(t, all[:k]); !bytes.Equal(got, want) {
			t.Fatalf("head %v, DecodeRecord %v", head[:k], all[:k])
		}
		var want geom.Geometry
		for _, v := range all[k:] {
			if v.Kind == KindGeometry {
				want = v.Geom
				break
			}
		}
		if (g == nil) != (want == nil) {
			t.Fatalf("geometry %v, want %v", g, want)
		}
		if g != nil && !bytes.Equal(mustEncode(t, []Value{GeomVal(g)}), mustEncode(t, []Value{GeomVal(want)})) {
			t.Fatalf("geometry %v, want %v", g, want)
		}
	})
}

// mustEncode compares values by their encoding, which is bitwise for floats
// (so a NaN equals itself).
func mustEncode(t *testing.T, vs []Value) []byte {
	t.Helper()
	data, err := EncodeRecord(vs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRecordShapeSkipsWithoutAllocating(t *testing.T) {
	data, err := EncodeRecord([]Value{
		IntVal(1), IntVal(42), IntVal(7), IntVal(8),
		TupleVal(TextVal("wood"), FloatVal(0.3)), RefVal(3), BitmapVal(make([]byte, 2048)),
		TextVal("installed 1995"), GeomVal(geom.LineString{geom.Pt(0, 0), geom.Pt(1, 1)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var head [shapeHead]Value
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeRecordShape(data, head[:]); err != nil {
			t.Fatal(err)
		}
	})
	// The line string itself: its points and its interface box.
	if allocs > 2 {
		t.Fatalf("DecodeRecordShape allocated %.0f times, want at most 2", allocs)
	}
}
