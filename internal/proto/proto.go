// Package proto defines the weak-integration wire protocol of §3.5: the
// communication and data-conversion layer between the GIS user interface and
// the geographic DBMS. The paper chooses weak integration — "the user
// interface is considered an external module, and is therefore adaptable to
// more than one system" — which "demands the definition of communication and
// data conversion protocols"; this package is that definition.
//
// Messages are length-prefixed JSON documents. Every reply to a retrieval
// primitive carries the (data, presentation) pair: the query result plus the
// customization the server-side active mechanism selected, so the interface
// builder on the client needs no second round trip.
//
// Requests and responses carry a caller-chosen ID, and a response answers
// the request with the same ID. Nothing in the framing requires lockstep
// request/response alternation: a client may have several requests in
// flight on one connection (internal/client multiplexes waiters by ID), and
// the framing would let a server answer them out of order. internal/server
// answers each connection's requests one at a time, in order.
package proto

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/spec"
)

// MaxMessageSize bounds a single frame (16 MiB), protecting both sides from
// corrupt length prefixes.
const MaxMessageSize = 16 << 20

// Errors returned by the protocol layer.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")
	ErrRemote        = errors.New("proto: remote error")
)

// Op names the protocol operations.
type Op string

// Protocol operations, one per Backend primitive.
const (
	OpConnect     Op = "connect"
	OpGetSchema   Op = "get_schema"
	OpGetClass    Op = "get_class"
	OpGetValue    Op = "get_value"
	OpSelectWhere Op = "select_where"
	OpCallMethod  Op = "call_method"
	// OpTxn commits an atomic batch of mutations: the weak-integration
	// binding of ui.TxnMutator, which a remote session's scenario commit
	// travels through as one request. The server applies Request.TxnOps as
	// one geodb transaction — one WAL group, one shared group-commit fsync
	// — and answers with the OIDs its inserts allocated. A retry could
	// apply the batch twice, so like call_method it is never retried.
	OpTxn Op = "txn"
	// OpStats returns a snapshot of the server's metrics registry; it is
	// the observability verb, outside the paper's primitive set.
	OpStats Op = "stats"
	// OpTrace returns traces retained by the server's tail sampler: all of
	// them, or — when Request.TraceID is set — just that one. Like OpStats
	// it is an observability verb outside the paper's primitive set.
	OpTrace Op = "trace"
)

// ReplicaUnavailableMsg prefixes every error a replica serves while it is
// unfit to answer reads (still snapshotting, lagging beyond its bound, or
// disconnected from the primary). Callers string-match it to tell an
// unavailable replica from a failed read — a deliberate sentinel, like
// io.EOF's message, not a format.
const ReplicaUnavailableMsg = "replica unavailable"

// ReplStatus reports a replication endpoint's role and progress
// (repl.Primary.Status, repl.Replica.Status).
type ReplStatus struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// RunID identifies the primary's log lineage; a replica refuses to mix
	// records from two lineages (see internal/repl).
	RunID uint64 `json:"run_id,omitempty"`
	// Durable is the primary's durable LSN (primaries only).
	Durable uint64 `json:"durable,omitempty"`
	// Applied is the replica's last applied consistent LSN; PrimaryDurable
	// is its latest view of the primary's durable LSN; Lag their difference.
	Applied        uint64 `json:"applied,omitempty"`
	PrimaryDurable uint64 `json:"primary_durable,omitempty"`
	Lag            uint64 `json:"lag,omitempty"`
	// Healthy reports whether the replica is serving reads (connected,
	// caught up within its lag bound). Always true on a primary.
	Healthy   bool `json:"healthy"`
	Connected bool `json:"connected"`
	// Replicas lists a primary's attached replicas.
	Replicas []ReplConnStatus `json:"replicas,omitempty"`
}

// ReplConnStatus is one attached replica as the primary sees it.
type ReplConnStatus struct {
	Addr  string `json:"addr"`
	Acked uint64 `json:"acked"`
	Lag   uint64 `json:"lag"`
}

// TxnOp kinds on the wire.
const (
	TxnInsert = "insert"
	TxnUpdate = "update"
	TxnDelete = "delete"
)

// TxnOp is one buffered mutation inside a txn request. Kind selects which
// fields are meaningful: insert uses Schema/Class/Values, update uses
// OID/Values, delete uses OID.
type TxnOp struct {
	Kind   string      `json:"kind"`
	Schema string      `json:"schema,omitempty"`
	Class  string      `json:"class,omitempty"`
	OID    catalog.OID `json:"oid,omitempty"`
	Values []Value     `json:"values,omitempty"`
}

// Request is a client→server message.
type Request struct {
	ID     uint64        `json:"id"`
	Op     Op            `json:"op"`
	Ctx    event.Context `json:"ctx"`
	Schema string        `json:"schema,omitempty"`
	Class  string        `json:"class,omitempty"`
	OID    catalog.OID   `json:"oid,omitempty"`
	// Window, when non-empty (WKT of a rectangle polygon), restricts a
	// get_class to instances intersecting the viewport.
	Window  string   `json:"window,omitempty"`
	Filters []Filter `json:"filters,omitempty"`
	Method  string   `json:"method,omitempty"`
	Args    []Value  `json:"args,omitempty"`
	// Trace carries the caller's span context so the server's spans join
	// the client's trace. Optional and backward-compatible: an old peer's
	// JSON decoder ignores the unknown field, an old client simply never
	// sends it.
	Trace *obs.SpanContext `json:"trace,omitempty"`
	// TraceID selects one retained trace for the trace verb (0 = all).
	TraceID uint64 `json:"trace_id,omitempty"`
	// TxnOps is the txn verb's mutation batch, applied atomically in order.
	TxnOps []TxnOp `json:"txn_ops,omitempty"`
}

// Response is a server→client message. Err is non-empty on failure; on
// success the field matching the request's op is populated.
type Response struct {
	ID        uint64              `json:"id"`
	Err       string              `json:"err,omitempty"`
	Schema    *SchemaInfo         `json:"schema,omitempty"`
	Class     *ClassData          `json:"class,omitempty"`
	Instance  *Instance           `json:"instance,omitempty"`
	Instances []Instance          `json:"instances,omitempty"`
	Value     *Value              `json:"value,omitempty"`
	Cust      *spec.Customization `json:"cust,omitempty"`
	Stats     *obs.Snapshot       `json:"stats,omitempty"`
	// OIDs answers the txn verb: one entry per op in request order, the
	// allocated identity for inserts and zero for updates/deletes.
	OIDs []catalog.OID `json:"oids,omitempty"`
	// Traces answers the trace verb with the server's retained traces.
	Traces []obs.TraceData `json:"traces,omitempty"`
}

// SchemaInfo mirrors geodb.SchemaInfo on the wire.
type SchemaInfo struct {
	Name    string            `json:"name"`
	Classes []string          `json:"classes"`
	Parents map[string]string `json:"parents"`
}

// ClassData mirrors ui.ClassData on the wire: the class metadata once, then
// one shape per drawn instance. Attribute values never travel with it;
// get_value fetches them per instance.
type ClassData struct {
	Schema       string          `json:"schema"`
	Class        catalog.Class   `json:"class_def"`
	Attrs        []catalog.Field `json:"attrs"`
	GeometryAttr string          `json:"geometry_attr,omitempty"`
	Shapes       []Shape         `json:"shapes"`
}

// Shape mirrors geodb.Shape on the wire: the geometry travels as WKT.
type Shape struct {
	OID catalog.OID `json:"oid"`
	WKT string      `json:"g"`
}

// Instance mirrors geodb.Instance on the wire.
type Instance struct {
	OID    catalog.OID     `json:"oid"`
	Schema string          `json:"schema"`
	Class  string          `json:"class"`
	Attrs  []catalog.Field `json:"attrs"`
	Values []Value         `json:"values"`
}

// Filter mirrors geodb.Filter on the wire.
type Filter struct {
	Attr  string `json:"attr"`
	Op    string `json:"op"`
	Value Value  `json:"value"`
}

// Value is the wire form of catalog.Value: geometries travel as WKT,
// bitmaps as base64.
type Value struct {
	Kind   uint8   `json:"k"`
	Int    int64   `json:"i,omitempty"`
	Float  float64 `json:"f,omitempty"`
	Text   string  `json:"t,omitempty"`
	Bool   bool    `json:"b,omitempty"`
	Tuple  []Value `json:"tu,omitempty"`
	Ref    uint64  `json:"r,omitempty"`
	WKT    string  `json:"g,omitempty"`
	Bitmap string  `json:"bm,omitempty"`
}

// EncodeValue converts a catalog value to wire form.
func EncodeValue(v catalog.Value) (Value, error) {
	out := Value{Kind: uint8(v.Kind)}
	switch v.Kind {
	case 0:
	case catalog.KindInteger:
		out.Int = v.Int
	case catalog.KindFloat:
		out.Float = v.Float
	case catalog.KindText:
		out.Text = v.Text
	case catalog.KindBool:
		out.Bool = v.Bool
	case catalog.KindTuple:
		for _, c := range v.Tuple {
			cv, err := EncodeValue(c)
			if err != nil {
				return Value{}, err
			}
			out.Tuple = append(out.Tuple, cv)
		}
	case catalog.KindReference:
		out.Ref = uint64(v.Ref)
	case catalog.KindGeometry:
		if v.Geom != nil {
			out.WKT = v.Geom.WKT()
		}
	case catalog.KindBitmap:
		out.Bitmap = base64.StdEncoding.EncodeToString(v.Bitmap)
	default:
		return Value{}, fmt.Errorf("proto: unknown value kind %d", v.Kind)
	}
	return out, nil
}

// DecodeValue converts a wire value back to catalog form.
func DecodeValue(v Value) (catalog.Value, error) {
	switch catalog.Kind(v.Kind) {
	case 0:
		return catalog.Null, nil
	case catalog.KindInteger:
		return catalog.IntVal(v.Int), nil
	case catalog.KindFloat:
		return catalog.FloatVal(v.Float), nil
	case catalog.KindText:
		return catalog.TextVal(v.Text), nil
	case catalog.KindBool:
		return catalog.BoolVal(v.Bool), nil
	case catalog.KindTuple:
		vs := make([]catalog.Value, len(v.Tuple))
		for i, c := range v.Tuple {
			cv, err := DecodeValue(c)
			if err != nil {
				return catalog.Value{}, err
			}
			vs[i] = cv
		}
		return catalog.TupleVal(vs...), nil
	case catalog.KindReference:
		return catalog.RefVal(catalog.OID(v.Ref)), nil
	case catalog.KindGeometry:
		if v.WKT == "" {
			return catalog.GeomVal(nil), nil
		}
		g, err := geom.ParseWKT(v.WKT)
		if err != nil {
			return catalog.Value{}, err
		}
		return catalog.GeomVal(g), nil
	case catalog.KindBitmap:
		b, err := base64.StdEncoding.DecodeString(v.Bitmap)
		if err != nil {
			return catalog.Value{}, fmt.Errorf("proto: bad bitmap: %w", err)
		}
		return catalog.BitmapVal(b), nil
	default:
		return catalog.Value{}, fmt.Errorf("proto: unknown value kind %d", v.Kind)
	}
}

// EncodeValues converts a value slice.
func EncodeValues(vs []catalog.Value) ([]Value, error) {
	out := make([]Value, len(vs))
	for i, v := range vs {
		ev, err := EncodeValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = ev
	}
	return out, nil
}

// DecodeValues converts a wire value slice.
func DecodeValues(vs []Value) ([]catalog.Value, error) {
	out := make([]catalog.Value, len(vs))
	for i, v := range vs {
		dv, err := DecodeValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = dv
	}
	return out, nil
}

// EncodeInstance converts a database instance to wire form.
func EncodeInstance(in geodb.Instance) (Instance, error) {
	values, err := EncodeValues(in.Values)
	if err != nil {
		return Instance{}, err
	}
	return Instance{
		OID:    in.OID,
		Schema: in.Schema,
		Class:  in.Class,
		Attrs:  in.Attrs,
		Values: values,
	}, nil
}

// DecodeInstance converts a wire instance back to database form.
func DecodeInstance(in Instance) (geodb.Instance, error) {
	values, err := DecodeValues(in.Values)
	if err != nil {
		return geodb.Instance{}, err
	}
	return geodb.Instance{
		OID:    in.OID,
		Schema: in.Schema,
		Class:  in.Class,
		Attrs:  in.Attrs,
		Values: values,
	}, nil
}

// EncodeShapes converts shapes to wire form.
func EncodeShapes(shapes []geodb.Shape) []Shape {
	out := make([]Shape, len(shapes))
	for i, sh := range shapes {
		out[i] = Shape{OID: sh.OID, WKT: sh.Geom.WKT()}
	}
	return out
}

// DecodeShapes converts wire shapes back.
func DecodeShapes(ws []Shape) ([]geodb.Shape, error) {
	out := make([]geodb.Shape, len(ws))
	for i, w := range ws {
		g, err := geom.ParseWKT(w.WKT)
		if err != nil {
			return nil, fmt.Errorf("proto: shape of oid %d: %w", w.OID, err)
		}
		out[i] = geodb.Shape{OID: w.OID, Geom: g}
	}
	return out, nil
}

// EncodeFilters converts filters to wire form.
func EncodeFilters(fs []geodb.Filter) ([]Filter, error) {
	out := make([]Filter, len(fs))
	for i, f := range fs {
		v, err := EncodeValue(f.Value)
		if err != nil {
			return nil, err
		}
		out[i] = Filter{Attr: f.Attr, Op: f.Op, Value: v}
	}
	return out, nil
}

// DecodeFilters converts wire filters back.
func DecodeFilters(fs []Filter) ([]geodb.Filter, error) {
	out := make([]geodb.Filter, len(fs))
	for i, f := range fs {
		v, err := DecodeValue(f.Value)
		if err != nil {
			return nil, err
		}
		out[i] = geodb.Filter{Attr: f.Attr, Op: f.Op, Value: v}
	}
	return out, nil
}

// WriteMessage frames and writes one message (any JSON-serializable value).
func WriteMessage(w io.Writer, msg any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("proto: encode: %w", err)
	}
	if len(payload) > MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("proto: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("proto: write payload: %w", err)
	}
	return nil
}

// ReadMessage reads one framed message into msg.
//
// Stream position on failure is well defined: on ErrFrameTooLarge exactly
// the 4-byte length prefix has been consumed and the (oversized) payload is
// still unread; a truncated length prefix returns io.EOF (nothing read) or
// io.ErrUnexpectedEOF (partial prefix consumed). Callers treating the
// stream as poisoned after any error — as internal/client does — need no
// resynchronization logic; callers that want to skip an oversized frame can
// discard exactly the rejected length.
func ReadMessage(r io.Reader, msg any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("proto: read payload: %w", err)
	}
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("proto: decode: %w", err)
	}
	return nil
}
