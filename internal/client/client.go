// Package client is the UI-side binding of the weak-integration protocol:
// it implements ui.Backend over a connection to a server, so the same
// dispatcher and generic interface builder run unchanged whether the DBMS is
// in-process (strong integration) or remote (weak integration) — exactly the
// adaptability §3.5 argues for.
//
// The transport is fault-tolerant and pipelined. Concurrent callers share
// one connection: each request carries a unique proto.Request.ID, a single
// reader goroutine demultiplexes responses back to their waiters, and writes
// are serialized per frame — so N sessions multiplexed over one link wait on
// the DBMS, not on each other (DESIGN.md §10). Requests carry optional
// deadlines, a RetryPolicy re-issues idempotent retrieval verbs with
// exponential backoff and jitter, a dial function lets the client reconnect
// so it survives server restarts, and any framing or ID-mismatch error
// poisons the connection — a desynchronized stream is closed, every
// in-flight request on it fails fast, and it is never reused. Retries,
// reconnects, timeouts and poisonings are counted in the internal/obs
// registry and therefore appear in the STATS verb snapshot.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/ui"
)

// Client-side fault-tolerance accounting, resolved once.
var (
	mRetries    = obs.Default().Counter("gis_client_retries_total")
	mReconnects = obs.Default().Counter("gis_client_reconnects_total")
	mTimeouts   = obs.Default().Counter("gis_client_request_timeouts_total")
	mPoisoned   = obs.Default().Counter("gis_client_conn_poisoned_total")
)

// ErrClosed is returned for requests on a closed client.
var ErrClosed = errors.New("client: closed")

// errNotConnected reports a client whose connection is gone and that has no
// dial function to get a new one.
var errNotConnected = errors.New("client: not connected and no dial function")

// RetryPolicy shapes transparent retries of idempotent retrieval verbs.
// Only transport-level failures (dial errors, timeouts, framing or ID
// desynchronization) are retried; an error the server itself returned
// (proto.ErrRemote) is an application answer and is surfaced immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, including the
	// first. 0 or 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms).
	// Each further retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized (0..1,
	// default 0.5): delay' = delay − uniform(0, Jitter·delay). Jitter
	// de-synchronizes herds of clients retrying after a server restart.
	Jitter float64
}

// backoff returns the delay before retry number n (1-based).
func (p RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = time.Second
	}
	d := base << uint(n-1)
	if d > maxd || d <= 0 {
		d = maxd
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.5
	}
	if jitter > 0 && jitter <= 1 {
		d -= time.Duration(rng.Float64() * jitter * float64(d))
	}
	return d
}

// Options configures a fault-tolerant client.
type Options struct {
	// Dial produces a new connection; when set, the client reconnects
	// through it after any transport failure, surviving server restarts.
	// Nil means the client is pinned to one fixed connection.
	Dial func() (net.Conn, error)
	// Timeout bounds one request round trip (write + wait for the matching
	// response). Zero disables. A timed-out connection is poisoned: the
	// late response would desynchronize the demultiplexer's view of the
	// stream, so the whole session is discarded.
	Timeout time.Duration
	// Retry shapes transparent retries of idempotent verbs.
	Retry RetryPolicy
	// Seed seeds the backoff-jitter PRNG, for deterministic tests. Zero
	// uses a time-derived seed.
	Seed int64
}

// result is what a waiter receives from the reader goroutine.
type result struct {
	resp proto.Response
	err  error
}

// session is one live connection plus its demultiplexer state. A session is
// created on (re)connect and discarded wholesale on any transport failure;
// the Client above it survives and dials a fresh session.
type session struct {
	conn net.Conn
	// writeMu serializes frame writes; requests from concurrent callers
	// interleave at frame granularity, which is all the framing needs.
	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]chan result // in-flight requests by ID
	closed  bool
	err     error // the teardown cause, served to late arrivals
}

// Client speaks the protocol over one connection, pipelined: concurrent
// callers issue requests without queueing behind each other's round trips.
// All methods are safe for concurrent use.
type Client struct {
	mu     sync.Mutex
	sess   *session
	conn   net.Conn // pre-established conn not yet wrapped in a session
	opts   Options
	dialed bool // a first connection existed; later dials are reconnects
	closed bool

	next atomic.Uint64 // request ID source, unique across sessions

	// tracer spans every round trip and each transport attempt inside it;
	// disabled (and free) until a sink is attached via Tracer().
	tracer obs.Tracer

	rngMu sync.Mutex
	rng   *rand.Rand
}

// Tracer exposes the client's tracer so a span sink can be attached.
func (c *Client) Tracer() *obs.Tracer { return &c.tracer }

// Dial connects to a TCP server with no timeout and no retries — the
// plain §3.5 configuration. Use DialOptions for a fault-tolerant client.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a TCP server and keeps its address as the
// reconnect target (unless Options.Dial overrides it). The initial dial is
// eager so a bad address fails fast.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.Dial == nil {
		opts.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	c := New(opts)
	if _, err := c.ensureSession(); err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return c, nil
}

// New returns a client that dials lazily through opts.Dial on first use.
func New(opts Options) *Client {
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{opts: opts, rng: rand.New(rand.NewSource(seed))}
}

// NewClient wraps an established connection (e.g. one end of net.Pipe) with
// no timeout, no retries and no reconnect.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, rng: rand.New(rand.NewSource(1))}
}

// Close closes the connection and fails any in-flight requests with
// ErrClosed; further requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	s := c.sess
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if s != nil {
		c.teardown(s, ErrClosed, false)
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// ensureSession returns the live session, dialing a new connection and
// starting its reader when none exists.
func (c *Client) ensureSession() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.sess != nil {
		return c.sess, nil
	}
	conn := c.conn
	c.conn = nil
	if conn == nil {
		if c.opts.Dial == nil {
			return nil, errNotConnected
		}
		var err error
		conn, err = c.opts.Dial()
		if err != nil {
			return nil, err
		}
		if c.dialed {
			mReconnects.Inc()
		}
	}
	c.dialed = true
	s := &session{conn: conn, pending: make(map[uint64]chan result)}
	c.sess = s
	go c.readLoop(s)
	return s, nil
}

// teardown retires a session: the connection is closed, every in-flight
// request fails fast with err, and the client forgets the session so the
// next request dials fresh. Idempotent — only the first caller wins, so a
// clean Close (poison=false) racing the reader never inflates the poison
// counter. poison marks streams whose position became untrustworthy
// (framing error, timeout, ID desync).
func (c *Client) teardown(s *session, err error, poison bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()

	_ = s.conn.Close()
	if poison {
		mPoisoned.Inc()
	}
	for _, ch := range pending {
		ch <- result{err: err}
	}
	c.mu.Lock()
	if c.sess == s {
		c.sess = nil
	}
	c.mu.Unlock()
}

// readLoop is the session's demultiplexer: it owns the read side of the
// connection, routing each response to the waiter registered under its ID.
// Any read failure or unmatched ID retires the whole session.
func (c *Client) readLoop(s *session) {
	for {
		var resp proto.Response
		if err := proto.ReadMessage(s.conn, &resp); err != nil {
			// If teardown already ran (Close, timeout, write failure) this
			// is the reader observing its own closed conn: a no-op.
			c.teardown(s, fmt.Errorf("client: connection lost: %w", err), true)
			return
		}
		s.mu.Lock()
		ch, ok := s.pending[resp.ID]
		if ok {
			delete(s.pending, resp.ID)
		}
		closed := s.closed
		s.mu.Unlock()
		if !ok {
			if closed {
				return // late response racing a concurrent teardown
			}
			// An ID we never sent (or already satisfied) proves the stream
			// is desynchronized: nothing read from it can be trusted.
			c.teardown(s, fmt.Errorf("client: response id %d matches no in-flight request", resp.ID), true)
			return
		}
		ch <- result{resp: resp}
	}
}

// retryable reports whether op is an idempotent retrieval verb that a retry
// may safely re-issue. call_method may run arbitrary database code, so it is
// never retried.
func retryable(op proto.Op) bool {
	switch op {
	case proto.OpConnect, proto.OpGetSchema, proto.OpGetClass,
		proto.OpGetValue, proto.OpSelectWhere, proto.OpStats, proto.OpTrace:
		return true
	}
	return false
}

// transient reports whether err may heal on a fresh connection. Remote
// errors are application answers, not transport failures.
func transient(err error) bool {
	return !errors.Is(err, proto.ErrRemote) && !errors.Is(err, ErrClosed)
}

func (c *Client) roundTrip(req proto.Request) (_ proto.Response, rerr error) {
	// One span covers the whole logical request; each transport attempt gets
	// a child of its own, and the wire context is restamped per attempt — so
	// a retried request keeps one trace ID but every attempt is a distinct
	// span in the tree.
	sp := c.tracer.StartSpan("client."+string(req.Op), req.Ctx.Trace)
	defer func() { sp.SetError(rerr).Finish() }()
	attempts := 1
	if retryable(req.Op) && c.opts.Retry.MaxAttempts > 1 {
		attempts = c.opts.Retry.MaxAttempts
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			mRetries.Inc()
			c.rngMu.Lock()
			delay := c.opts.Retry.backoff(attempt-1, c.rng)
			c.rngMu.Unlock()
			time.Sleep(delay)
		}
		asp := sp.Child("client.attempt").Setf("attempt", "%d", attempt)
		if asp != nil {
			sc := asp.Context()
			req.Trace = &sc
		} else if req.Ctx.Trace.Valid() {
			// Tracing is off in this client but the caller has a trace (e.g.
			// a recording session over an untraced client): still propagate.
			sc := req.Ctx.Trace
			req.Trace = &sc
		}
		resp, err := c.attempt(&req)
		asp.SetError(err).Finish()
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !transient(err) {
			return proto.Response{}, err
		}
	}
	return proto.Response{}, lastErr
}

// attempt performs one pipelined exchange: register a waiter under a fresh
// ID, write the frame, then block until the reader delivers the matching
// response (or the deadline/teardown fails it). Concurrent attempts share
// the session; only the frame write itself is serialized.
func (c *Client) attempt(req *proto.Request) (proto.Response, error) {
	s, err := c.ensureSession()
	if err != nil {
		return proto.Response{}, err
	}
	id := c.next.Add(1)
	req.ID = id
	ch := make(chan result, 1)
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		return proto.Response{}, err
	}
	s.pending[id] = ch
	s.mu.Unlock()

	s.writeMu.Lock()
	if c.opts.Timeout > 0 {
		s.conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	}
	werr := proto.WriteMessage(s.conn, *req)
	if werr == nil && c.opts.Timeout > 0 {
		s.conn.SetWriteDeadline(time.Time{})
	}
	s.writeMu.Unlock()
	if werr != nil {
		var ne net.Error
		if errors.As(werr, &ne) && ne.Timeout() {
			mTimeouts.Inc()
		}
		// A partial frame leaves the write side desynchronized for every
		// other in-flight request too: fail them all and start over.
		c.teardown(s, fmt.Errorf("client: write failed: %w", werr), true)
		return proto.Response{}, werr
	}

	var timeoutC <-chan time.Time
	if c.opts.Timeout > 0 {
		timer := time.NewTimer(c.opts.Timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return proto.Response{}, res.err
		}
		if res.resp.Err != "" {
			return proto.Response{}, fmt.Errorf("%w: %s", proto.ErrRemote, res.resp.Err)
		}
		return res.resp, nil
	case <-timeoutC:
		mTimeouts.Inc()
		terr := fmt.Errorf("client: request %d timed out after %v", id, c.opts.Timeout)
		// The response may still arrive later; reading past it is not an
		// option (it could pair with a future request), so poison.
		c.teardown(s, terr, true)
		return proto.Response{}, terr
	}
}

// Connect implements ui.Backend.
func (c *Client) Connect(ctx event.Context) error {
	_, err := c.roundTrip(proto.Request{Op: proto.OpConnect, Ctx: ctx})
	return err
}

// GetSchema implements ui.Backend.
func (c *Client) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpGetSchema, Ctx: ctx, Schema: schema})
	if err != nil {
		return geodb.SchemaInfo{}, nil, err
	}
	if resp.Schema == nil {
		return geodb.SchemaInfo{}, nil, fmt.Errorf("%w: missing schema payload", proto.ErrRemote)
	}
	info := geodb.SchemaInfo{
		Name:    resp.Schema.Name,
		Classes: resp.Schema.Classes,
		Parents: resp.Schema.Parents,
	}
	return info, resp.Cust, nil
}

// GetClass implements ui.Backend.
func (c *Client) GetClass(ctx event.Context, schema, class string) (ui.ClassData, *spec.Customization, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpGetClass, Ctx: ctx, Schema: schema, Class: class})
	if err != nil {
		return ui.ClassData{}, nil, err
	}
	return c.decodeClass(resp)
}

func (c *Client) decodeClass(resp proto.Response) (ui.ClassData, *spec.Customization, error) {
	if resp.Class == nil {
		return ui.ClassData{}, nil, fmt.Errorf("%w: missing class payload", proto.ErrRemote)
	}
	shapes, err := proto.DecodeShapes(resp.Class.Shapes)
	if err != nil {
		return ui.ClassData{}, nil, err
	}
	data := ui.ClassData{
		Info: geodb.ClassInfo{
			Schema:       resp.Class.Schema,
			Class:        resp.Class.Class,
			Attrs:        resp.Class.Attrs,
			GeometryAttr: resp.Class.GeometryAttr,
		},
		Instances: shapes,
	}
	return data, resp.Cust, nil
}

// GetClassWindowed implements ui.Backend: the viewport crosses the wire as
// the WKT of its rectangle.
func (c *Client) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ui.ClassData, *spec.Customization, error) {
	resp, err := c.roundTrip(proto.Request{
		Op: proto.OpGetClass, Ctx: ctx, Schema: schema, Class: class, Window: window.WKT()})
	if err != nil {
		return ui.ClassData{}, nil, err
	}
	return c.decodeClass(resp)
}

// GetValue implements ui.Backend.
func (c *Client) GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpGetValue, Ctx: ctx, OID: oid})
	if err != nil {
		return geodb.Instance{}, nil, err
	}
	if resp.Instance == nil {
		return geodb.Instance{}, nil, fmt.Errorf("%w: missing instance payload", proto.ErrRemote)
	}
	in, err := proto.DecodeInstance(*resp.Instance)
	if err != nil {
		return geodb.Instance{}, nil, err
	}
	return in, resp.Cust, nil
}

// SelectWhere implements ui.Backend.
func (c *Client) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error) {
	wf, err := proto.EncodeFilters(filters)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(proto.Request{
		Op: proto.OpSelectWhere, Ctx: ctx, Schema: schema, Class: class, Filters: wf})
	if err != nil {
		return nil, err
	}
	out := make([]geodb.Instance, 0, len(resp.Instances))
	for _, wi := range resp.Instances {
		in, err := proto.DecodeInstance(wi)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// Stats fetches a snapshot of the server's metrics registry (the STATS
// observability verb).
func (c *Client) Stats() (obs.Snapshot, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpStats})
	if err != nil {
		return obs.Snapshot{}, err
	}
	if resp.Stats == nil {
		return obs.Snapshot{}, fmt.Errorf("%w: missing stats payload", proto.ErrRemote)
	}
	return *resp.Stats, nil
}

// CallMethod implements ui.Backend (and builder.MethodCaller). Methods may
// run arbitrary database code, so CallMethod is never retried: a transport
// failure surfaces to the caller, who knows whether re-invoking is safe.
func (c *Client) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	wargs, err := proto.EncodeValues(args)
	if err != nil {
		return catalog.Value{}, err
	}
	resp, err := c.roundTrip(proto.Request{Op: proto.OpCallMethod, OID: oid, Method: method, Args: wargs})
	if err != nil {
		return catalog.Value{}, err
	}
	if resp.Value == nil {
		return catalog.Value{}, fmt.Errorf("%w: missing value payload", proto.ErrRemote)
	}
	return proto.DecodeValue(*resp.Value)
}

// CommitTxn implements ui.TxnMutator over the txn verb: the batch crosses
// the wire as one request and commits server-side as one geodb transaction
// (one WAL group, one shared group-commit fsync). A remote session commits
// its scenarios through it. Like call_method it is never retried — a
// transport failure leaves the outcome unknown, and only the caller can
// decide whether re-issuing is safe.
func (c *Client) CommitTxn(ctx event.Context, ops []ui.TxnOp) ([]catalog.OID, error) {
	wire := make([]proto.TxnOp, len(ops))
	for i, op := range ops {
		values, err := proto.EncodeValues(op.Values)
		if err != nil {
			return nil, fmt.Errorf("client: txn op %d: %w", i, err)
		}
		w := proto.TxnOp{Schema: op.Schema, Class: op.Class, OID: op.OID, Values: values}
		switch op.Kind {
		case ui.TxnInsert:
			w.Kind = proto.TxnInsert
		case ui.TxnUpdate:
			w.Kind = proto.TxnUpdate
		case ui.TxnDelete:
			w.Kind = proto.TxnDelete
		default:
			return nil, fmt.Errorf("client: txn op %d: unknown kind %s", i, op.Kind)
		}
		wire[i] = w
	}
	resp, err := c.roundTrip(proto.Request{Op: proto.OpTxn, Ctx: ctx, TxnOps: wire})
	if err != nil {
		return nil, err
	}
	if len(resp.OIDs) != len(ops) {
		return nil, fmt.Errorf("%w: txn answered %d oids for %d ops", proto.ErrRemote, len(resp.OIDs), len(ops))
	}
	return resp.OIDs, nil
}

// Traces fetches every trace retained by the server's tail sampler (the
// TRACE observability verb).
func (c *Client) Traces() ([]obs.TraceData, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpTrace})
	if err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// Trace fetches one retained trace by ID; a trace the sampler did not
// retain (or has since evicted) is a remote error.
func (c *Client) Trace(trace uint64) (obs.TraceData, error) {
	resp, err := c.roundTrip(proto.Request{Op: proto.OpTrace, TraceID: trace})
	if err != nil {
		return obs.TraceData{}, err
	}
	if len(resp.Traces) == 0 {
		return obs.TraceData{}, fmt.Errorf("%w: trace %s not retained", proto.ErrRemote, obs.IDString(trace))
	}
	return resp.Traces[0], nil
}
