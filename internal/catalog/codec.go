package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// This file implements the record codec: the serialization of an instance's
// attribute values into heap-file record bytes and back. The layout is
// self-describing per value (a kind tag precedes each payload) so that a
// record survives benign schema evolution such as appending attributes.
//
// Record layout:
//
//	uvarint attrCount
//	attrCount × value
//
// Value layout: 1 byte kind tag (0 = null), then a kind-specific payload.

// ErrBadRecord is wrapped by every decode failure.
var ErrBadRecord = errors.New("catalog: malformed record")

// EncodeRecord serializes values in attribute order.
func EncodeRecord(values []Value) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(len(values)))
	var err error
	for i, v := range values {
		buf, err = appendValue(buf, v)
		if err != nil {
			return nil, fmt.Errorf("attr %d: %w", i, err)
		}
	}
	return buf, nil
}

func appendValue(buf []byte, v Value) ([]byte, error) {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case 0:
		return buf, nil
	case KindInteger:
		return binary.AppendVarint(buf, v.Int), nil
	case KindFloat:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float)), nil
	case KindText:
		buf = binary.AppendUvarint(buf, uint64(len(v.Text)))
		return append(buf, v.Text...), nil
	case KindBool:
		if v.Bool {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case KindTuple:
		buf = binary.AppendUvarint(buf, uint64(len(v.Tuple)))
		var err error
		for _, c := range v.Tuple {
			buf, err = appendValue(buf, c)
			if err != nil {
				return nil, err
			}
		}
		return buf, nil
	case KindReference:
		return binary.AppendUvarint(buf, uint64(v.Ref)), nil
	case KindGeometry:
		return appendGeometry(buf, v.Geom)
	case KindBitmap:
		buf = binary.AppendUvarint(buf, uint64(len(v.Bitmap)))
		return append(buf, v.Bitmap...), nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, v.Kind)
	}
}

// Geometry payload: 1 byte geometry type (0 = nil), then coordinates.
func appendGeometry(buf []byte, g geom.Geometry) ([]byte, error) {
	if g == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, byte(g.GeomType()))
	switch gg := g.(type) {
	case geom.Point:
		return appendPoint(buf, gg), nil
	case geom.MultiPoint:
		buf = binary.AppendUvarint(buf, uint64(len(gg)))
		for _, p := range gg {
			buf = appendPoint(buf, p)
		}
		return buf, nil
	case geom.LineString:
		buf = binary.AppendUvarint(buf, uint64(len(gg)))
		for _, p := range gg {
			buf = appendPoint(buf, p)
		}
		return buf, nil
	case geom.Polygon:
		buf = binary.AppendUvarint(buf, uint64(1+len(gg.Holes)))
		buf = appendRing(buf, gg.Outer)
		for _, h := range gg.Holes {
			buf = appendRing(buf, h)
		}
		return buf, nil
	case geom.Rect:
		buf = appendPoint(buf, gg.Min)
		return appendPoint(buf, gg.Max), nil
	default:
		return nil, fmt.Errorf("%w: unsupported geometry %T", ErrBadRecord, g)
	}
}

func appendPoint(buf []byte, p geom.Point) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
}

func appendRing(buf []byte, r geom.Ring) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, p := range r {
		buf = appendPoint(buf, p)
	}
	return buf
}

// DecodeRecord parses a record produced by EncodeRecord.
func DecodeRecord(data []byte) ([]Value, error) {
	d := &decoder{buf: data}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("%w: attr count %d exceeds record size", ErrBadRecord, n)
	}
	values := make([]Value, n)
	for i := range values {
		values[i], err = d.value()
		if err != nil {
			return nil, fmt.Errorf("attr %d: %w", i, err)
		}
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(data)-d.pos)
	}
	return values, nil
}

// DecodeRecordShape reads what a map draws from a record produced by
// EncodeRecord. It fills head with the record's first len(head) values (or
// as many as it holds) and returns its value count and the first value
// after the head whose kind is KindGeometry, as a geometry: nil when there
// is none or that value holds no geometry. For a typechecked record whose
// head is an envelope, that is the instance's first non-null geometry
// attribute. It accepts exactly the records DecodeRecord accepts, checking
// every value through to the last byte, but steps over the values it does
// not return without allocating.
func DecodeRecordShape(data []byte, head []Value) (count int, g geom.Geometry, err error) {
	d := &decoder{buf: data}
	n, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(data)) {
		return 0, nil, fmt.Errorf("%w: attr count %d exceeds record size", ErrBadRecord, n)
	}
	found := false
	for i := 0; i < int(n); i++ {
		switch {
		case i < len(head):
			head[i], err = d.value()
		case !found && d.pos < len(data) && Kind(data[d.pos]) == KindGeometry:
			d.pos++
			g, err = d.geometry()
			found = true
		default:
			err = d.skip()
		}
		if err != nil {
			return 0, nil, fmt.Errorf("attr %d: %w", i, err)
		}
	}
	if d.pos != len(data) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(data)-d.pos)
	}
	return int(n), g, nil
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrBadRecord)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadRecord)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadRecord)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) float() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, fmt.Errorf("%w: truncated float", ErrBadRecord)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *decoder) bytes(n uint64) ([]byte, error) {
	if uint64(d.pos)+n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: truncated bytes(%d)", ErrBadRecord, n)
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, nil
}

func (d *decoder) point() (geom.Point, error) {
	x, err := d.float()
	if err != nil {
		return geom.Point{}, err
	}
	y, err := d.float()
	if err != nil {
		return geom.Point{}, err
	}
	return geom.Point{X: x, Y: y}, nil
}

func (d *decoder) value() (Value, error) {
	tag, err := d.byte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(tag) {
	case 0:
		return Null, nil
	case KindInteger:
		i, err := d.varint()
		return IntVal(i), err
	case KindFloat:
		f, err := d.float()
		return FloatVal(f), err
	case KindText:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		b, err := d.bytes(n)
		return TextVal(string(b)), err
	case KindBool:
		b, err := d.byte()
		return BoolVal(b != 0), err
	case KindTuple:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		if n > uint64(len(d.buf)) {
			return Value{}, fmt.Errorf("%w: tuple arity %d", ErrBadRecord, n)
		}
		vs := make([]Value, n)
		for i := range vs {
			vs[i], err = d.value()
			if err != nil {
				return Value{}, err
			}
		}
		return TupleVal(vs...), nil
	case KindReference:
		oid, err := d.uvarint()
		return RefVal(OID(oid)), err
	case KindGeometry:
		g, err := d.geometry()
		if err != nil {
			return Value{}, err
		}
		return GeomVal(g), nil
	case KindBitmap:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return Value{}, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return BitmapVal(out), nil
	default:
		return Value{}, fmt.Errorf("%w: unknown kind tag %d", ErrBadRecord, tag)
	}
}

// skip steps over one value, failing on exactly the inputs value fails on.
func (d *decoder) skip() error {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	switch Kind(tag) {
	case 0:
		return nil
	case KindInteger:
		_, err := d.varint()
		return err
	case KindFloat:
		_, err := d.float()
		return err
	case KindText, KindBitmap:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		_, err = d.bytes(n)
		return err
	case KindBool:
		_, err := d.byte()
		return err
	case KindTuple:
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.buf)) {
			return fmt.Errorf("%w: tuple arity %d", ErrBadRecord, n)
		}
		for i := uint64(0); i < n; i++ {
			if err := d.skip(); err != nil {
				return err
			}
		}
		return nil
	case KindReference:
		_, err := d.uvarint()
		return err
	case KindGeometry:
		return d.skipGeometry()
	default:
		return fmt.Errorf("%w: unknown kind tag %d", ErrBadRecord, tag)
	}
}

// skipGeometry steps over a geometry payload, failing on exactly the inputs
// geometry fails on.
func (d *decoder) skipGeometry() error {
	tag, err := d.byte()
	if err != nil {
		return err
	}
	points := func(what string) error {
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(d.buf))/16 {
			return fmt.Errorf("%w: %s size %d", ErrBadRecord, what, n)
		}
		_, err = d.bytes(16 * n)
		return err
	}
	switch geom.Type(tag) {
	case 0:
		return nil
	case geom.TypePoint:
		_, err := d.bytes(16)
		return err
	case geom.TypeMultiPoint:
		return points("multipoint")
	case geom.TypeLineString:
		return points("linestring")
	case geom.TypePolygon:
		rings, err := d.uvarint()
		if err != nil {
			return err
		}
		if rings == 0 || rings > uint64(len(d.buf)) {
			return fmt.Errorf("%w: polygon with %d rings", ErrBadRecord, rings)
		}
		for i := uint64(0); i < rings; i++ {
			if err := points("ring"); err != nil {
				return err
			}
		}
		return nil
	case geom.TypeRect:
		_, err := d.bytes(32)
		return err
	default:
		return fmt.Errorf("%w: unknown geometry tag %d", ErrBadRecord, tag)
	}
}

func (d *decoder) geometry() (geom.Geometry, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch geom.Type(tag) {
	case 0:
		return nil, nil
	case geom.TypePoint:
		return d.point()
	case geom.TypeMultiPoint:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.buf))/16 {
			return nil, fmt.Errorf("%w: multipoint size %d", ErrBadRecord, n)
		}
		mp := make(geom.MultiPoint, n)
		for i := range mp {
			mp[i], err = d.point()
			if err != nil {
				return nil, err
			}
		}
		return mp, nil
	case geom.TypeLineString:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.buf))/16 {
			return nil, fmt.Errorf("%w: linestring size %d", ErrBadRecord, n)
		}
		ls := make(geom.LineString, n)
		for i := range ls {
			ls[i], err = d.point()
			if err != nil {
				return nil, err
			}
		}
		return ls, nil
	case geom.TypePolygon:
		rings, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if rings == 0 || rings > uint64(len(d.buf)) {
			return nil, fmt.Errorf("%w: polygon with %d rings", ErrBadRecord, rings)
		}
		read := func() (geom.Ring, error) {
			n, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(len(d.buf))/16 {
				return nil, fmt.Errorf("%w: ring size %d", ErrBadRecord, n)
			}
			r := make(geom.Ring, n)
			for i := range r {
				r[i], err = d.point()
				if err != nil {
					return nil, err
				}
			}
			return r, nil
		}
		outer, err := read()
		if err != nil {
			return nil, err
		}
		pg := geom.Polygon{Outer: outer}
		for i := uint64(1); i < rings; i++ {
			h, err := read()
			if err != nil {
				return nil, err
			}
			pg.Holes = append(pg.Holes, h)
		}
		return pg, nil
	case geom.TypeRect:
		min, err := d.point()
		if err != nil {
			return nil, err
		}
		max, err := d.point()
		if err != nil {
			return nil, err
		}
		return geom.Rect{Min: min, Max: max}, nil
	default:
		return nil, fmt.Errorf("%w: unknown geometry tag %d", ErrBadRecord, tag)
	}
}
