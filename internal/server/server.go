// Package server exposes a geographic database (with its active mechanism)
// over the weak-integration protocol: the DBMS side of §3.5's open-GIS
// architecture. One Server serves many concurrent UI clients. Each
// connection is handled sequentially, one request at a time and in order,
// matching the one-interaction-at-a-time nature of a UI session; a client
// that multiplexes callers over one connection waits its turn per request
// (DESIGN.md §10).
//
// The transport is fault-tolerant: per-connection idle/write deadlines bound
// how long a dead peer can hold resources, MaxConns applies accept
// backpressure, a panicking backend turns into a protocol error instead of a
// dead connection, and Shutdown drains in-flight requests before closing.
// Every recovery event is counted in the internal/obs registry (see the
// "Failure model & recovery" section of DESIGN.md for the metric names).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/ui"
)

// Registry-side request accounting: a per-verb latency histogram plus the
// gauge of requests currently being handled. Handles are resolved once so
// handle() pays atomic adds only. The histograms keep full bucket counts in
// the stats snapshot, so consumers derive p50/p95/p99 per verb with
// obs.HistogramSnapshot.Quantile.
var (
	mRequestsTotal = obs.Default().Counter("gis_server_requests_total")
	mInFlight      = obs.Default().Gauge("gis_server_inflight_requests")
	mVerbSeconds   = map[proto.Op]*obs.Histogram{
		proto.OpConnect:        obs.Default().Histogram(`gis_server_verb_seconds{verb="connect"}`, obs.LatencyBuckets),
		proto.OpGetSchema:      obs.Default().Histogram(`gis_server_verb_seconds{verb="get_schema"}`, obs.LatencyBuckets),
		proto.OpGetClass:       obs.Default().Histogram(`gis_server_verb_seconds{verb="get_class"}`, obs.LatencyBuckets),
		proto.OpGetValue:       obs.Default().Histogram(`gis_server_verb_seconds{verb="get_value"}`, obs.LatencyBuckets),
		proto.OpSelectWhere:    obs.Default().Histogram(`gis_server_verb_seconds{verb="select_where"}`, obs.LatencyBuckets),
		proto.OpCallMethod:     obs.Default().Histogram(`gis_server_verb_seconds{verb="call_method"}`, obs.LatencyBuckets),
		proto.OpScenarioInsert: obs.Default().Histogram(`gis_server_verb_seconds{verb="scenario_insert"}`, obs.LatencyBuckets),
		proto.OpScenarioUpdate: obs.Default().Histogram(`gis_server_verb_seconds{verb="scenario_update"}`, obs.LatencyBuckets),
		proto.OpScenarioDelete: obs.Default().Histogram(`gis_server_verb_seconds{verb="scenario_delete"}`, obs.LatencyBuckets),
		proto.OpTxn:            obs.Default().Histogram(`gis_server_verb_seconds{verb="txn"}`, obs.LatencyBuckets),
		proto.OpStats:          obs.Default().Histogram(`gis_server_verb_seconds{verb="stats"}`, obs.LatencyBuckets),
		proto.OpTrace:          obs.Default().Histogram(`gis_server_verb_seconds{verb="trace"}`, obs.LatencyBuckets),
	}
	mVerbOther = obs.Default().Histogram(`gis_server_verb_seconds{verb="other"}`, obs.LatencyBuckets)

	// Fault-tolerance accounting (the tentpole of the robustness PR).
	mPanics        = obs.Default().Counter("gis_server_panics_total")
	mConnsAccepted = obs.Default().Counter("gis_server_conns_accepted_total")
	mConnsOpen     = obs.Default().Gauge("gis_server_open_conns")
	mIdleTimeouts  = obs.Default().Counter("gis_server_idle_timeouts_total")
	mLimitWaits    = obs.Default().Counter("gis_server_conn_limit_waits_total")
	mDrains        = obs.Default().Counter("gis_server_drains_total")
)

// connState tracks whether a connection has a request in flight; Shutdown
// closes idle conns immediately and lets busy ones finish writing their
// in-flight response.
type connState struct {
	busy bool
}

// Server answers protocol requests against a Backend (normally a
// ui.DirectBackend wrapping the database and its rule engine).
//
// The exported tuning fields must be set before Serve/ServeConn.
type Server struct {
	backend ui.Backend

	mu       sync.Mutex
	cond     *sync.Cond // signaled when a conn unregisters or state changes
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   bool
	draining bool

	// IdleTimeout bounds how long a connection may sit between requests; a
	// peer that sends nothing for this long is disconnected. Zero disables.
	IdleTimeout time.Duration

	// WriteTimeout bounds writing one response. Zero disables.
	WriteTimeout time.Duration

	// MaxConns caps concurrently served connections. When the cap is
	// reached, Serve stops accepting (backpressure: the TCP backlog, not
	// the server, queues newcomers) until a connection closes. Zero means
	// unlimited.
	MaxConns int

	// Checkpoint, when set, is invoked once after Shutdown finishes
	// draining: the graceful stop ends with a durability point, so a
	// restart replays nothing (core.System.NewServer wires it to
	// geodb.DB.Checkpoint). Close does not call it — an abrupt stop relies
	// on WAL replay instead.
	Checkpoint func() error

	// Log receives connection lifecycle at debug, and connection failures,
	// recovered panics and requests slower than SlowRequest at warn. Lines
	// from a connection carry its ID and peer address; a slow request also
	// carries its trace ID. Request errors go back to the client and are
	// not logged. Nil means obs.DiscardLogger.
	Log *slog.Logger

	// SlowRequest is the latency threshold above which a request earns a
	// warn-level log line. Zero disables.
	SlowRequest time.Duration

	// Tracer, when set, roots one server-side span per request, continuing
	// the client's trace when the request carries a trace context.
	Tracer *obs.Tracer

	// TraceStore, when set, answers the trace verb with retained traces.
	TraceStore *obs.TailSampler

	// Requests counts requests served (B8 reporting). It is mutated across
	// connection goroutines, hence atomic; read it with Requests.Load().
	Requests atomic.Uint64

	// connSeq hands out connection IDs for log correlation.
	connSeq atomic.Uint64
}

// New returns a server over the backend.
func New(backend ui.Backend) *Server {
	s := &Server{
		backend: backend,
		conns:   map[net.Conn]*connState{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// register inserts conn into the live set, or closes it when the server is
// already closed or draining — the Close/Serve race fix: a connection
// accepted concurrently with Close must never be tracked-and-leaked.
func (s *Server) register(conn net.Conn) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		_ = conn.Close()
		return nil
	}
	st := &connState{}
	s.conns[conn] = st
	mConnsAccepted.Inc()
	mConnsOpen.Inc()
	return st
}

func (s *Server) unregister(conn net.Conn) {
	_ = conn.Close()
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		mConnsOpen.Dec()
	}
	s.cond.Broadcast() // frees a MaxConns slot and advances Shutdown
	s.mu.Unlock()
}

// Serve accepts connections until the listener closes. It returns nil after
// Close or Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		// Accept backpressure: at the MaxConns cap, park before accepting
		// so newcomers queue in the listen backlog instead of being served.
		s.mu.Lock()
		waited := false
		for s.MaxConns > 0 && len(s.conns) >= s.MaxConns && !s.closed && !s.draining {
			if !waited {
				mLimitWaits.Inc()
				waited = true
			}
			s.cond.Wait()
		}
		stopped := s.closed || s.draining
		s.mu.Unlock()
		if stopped {
			return nil
		}
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		st := s.register(conn)
		if st == nil {
			continue
		}
		go s.serveConn(conn, st)
	}
}

// ListenAndServe listens on a TCP address and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(l)
}

// ServeConn handles a single pre-established connection (used with
// net.Pipe for the in-process weak-integration configuration). It returns
// when the connection closes; a conn arriving after Close is closed
// immediately rather than served.
func (s *Server) ServeConn(conn net.Conn) {
	st := s.register(conn)
	if st == nil {
		return
	}
	s.serveConn(conn, st)
}

// Close stops accepting and closes every live connection immediately,
// without draining. Use Shutdown for a graceful stop.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Server) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.cond.Broadcast()
	return err
}

// Shutdown gracefully stops the server: it stops accepting, closes idle
// connections, lets in-flight requests finish writing their responses, then
// closes everything. If ctx expires first, remaining connections are
// force-closed and the context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	if !alreadyDraining {
		mDrains.Inc()
		if s.listener != nil {
			_ = s.listener.Close()
		}
		// Idle connections are between requests: nothing to drain, close
		// them now. Busy ones close themselves after their responses.
		for c, st := range s.conns {
			if !st.busy {
				_ = c.Close()
			}
		}
		s.cond.Broadcast() // unpark Serve's backpressure wait
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		defer s.mu.Unlock()
		for len(s.conns) > 0 && !s.closed {
			s.cond.Wait()
		}
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.mu.Lock()
	s.closeLocked()
	s.mu.Unlock()
	<-done
	// The drain is over (cleanly or by deadline): no request will mutate
	// the database through this server again, so checkpoint now and the
	// next Open has nothing to replay.
	if s.Checkpoint != nil {
		if cerr := s.Checkpoint(); cerr != nil {
			s.logger().Warn("shutdown checkpoint failed", "err", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Draining reports whether a graceful Shutdown is in progress or done.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// logger returns Log, or obs.DiscardLogger when Log is unset.
func (s *Server) logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return obs.DiscardLogger
}

// connLogger derives the per-connection logger: every line it emits carries
// the connection ID and peer address.
func (s *Server) connLogger(conn net.Conn, cid uint64) *slog.Logger {
	var peer string
	if addr := conn.RemoteAddr(); addr != nil {
		peer = addr.String()
	}
	return s.logger().With("conn", cid, "peer", peer)
}

// startRequestSpan opens the server-side request span — the local root of
// the trace, continuing the client's context when the request carries one —
// and grafts the trace identity onto the request context so every backend
// component below (engine, geodb, WAL) parents its spans correctly. Returns
// nil (and still propagates a carried context) when tracing is off.
func (s *Server) startRequestSpan(req *proto.Request) *obs.Span {
	var parent obs.SpanContext
	if req.Trace != nil {
		parent = *req.Trace
	}
	sp := s.Tracer.StartRequest("server."+string(req.Op), parent)
	if sp != nil {
		req.Ctx.Trace = sp.Context()
	} else if parent.Valid() {
		req.Ctx.Trace = parent
	}
	return sp
}

// finishRequest closes out one request after its response left (or failed to
// leave): the request span finishes — triggering the tail sampler's
// retention decision — and requests over the SlowRequest threshold earn a
// structured warn line carrying the trace ID.
func (s *Server) finishRequest(cl *slog.Logger, op proto.Op, sp *obs.Span, t0 time.Time, errMsg string) {
	if errMsg != "" {
		sp.SetError(errors.New(errMsg))
	}
	sp.Finish()
	dur := time.Since(t0)
	if s.SlowRequest > 0 && dur >= s.SlowRequest && cl.Enabled(context.Background(), slog.LevelWarn) {
		kvs := []any{"verb", string(op), "dur_ms", dur.Milliseconds()}
		if sp != nil {
			kvs = append(kvs, "trace", obs.IDString(sp.Trace))
		}
		if errMsg != "" {
			kvs = append(kvs, "err", errMsg)
		}
		cl.Warn("slow request", kvs...)
	}
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	cid := s.connSeq.Add(1)
	cl := s.connLogger(conn, cid)
	cl.Debug("connection opened")
	defer cl.Debug("connection closed")
	defer s.unregister(conn)
	for {
		req, ok := s.readRequest(conn, cl)
		if !ok {
			return
		}
		s.mu.Lock()
		if s.draining || s.closed {
			// The drain raced our read: drop the request rather than
			// answer past the shutdown point.
			s.mu.Unlock()
			return
		}
		st.busy = true
		s.mu.Unlock()

		t0 := time.Now()
		sp := s.startRequestSpan(&req)
		resp := s.handle(req)

		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		werr := proto.WriteMessage(conn, resp)
		s.finishRequest(cl, req.Op, sp, t0, resp.Err)

		s.mu.Lock()
		st.busy = false
		drain := s.draining || s.closed
		s.mu.Unlock()
		if werr != nil {
			if !errors.Is(werr, net.ErrClosed) {
				cl.Warn("write failed", "err", werr)
			}
			return
		}
		if drain {
			return // response delivered; the drain takes the conn down
		}
	}
}

// readRequest reads one frame under the idle deadline, logging the reasons
// a connection ends to cl; ok is false when the connection is done.
func (s *Server) readRequest(conn net.Conn, cl *slog.Logger) (req proto.Request, ok bool) {
	if s.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
	}
	if err := proto.ReadMessage(conn, &req); err != nil {
		switch {
		case isTimeout(err):
			mIdleTimeouts.Inc()
			cl.Warn("idle timeout")
		case !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed):
			cl.Warn("read failed", "err", err)
		}
		return proto.Request{}, false
	}
	return req, true
}

func (s *Server) handle(req proto.Request) (resp proto.Response) {
	s.Requests.Add(1)
	mRequestsTotal.Inc()
	mInFlight.Inc()
	h, ok := mVerbSeconds[req.Op]
	if !ok {
		h = mVerbOther
	}
	sw := obs.Start(h)
	defer func() {
		sw.Stop()
		mInFlight.Dec()
		// A panicking backend must cost one request, not the connection:
		// surface it as a protocol error and keep serving.
		if r := recover(); r != nil {
			mPanics.Inc()
			s.logger().Warn("panic handling request", "verb", string(req.Op), "panic", fmt.Sprint(r))
			resp = proto.Response{ID: req.ID, Err: fmt.Sprintf("server: internal error handling %s: %v", req.Op, r)}
		}
	}()
	resp = proto.Response{ID: req.ID}
	fail := func(err error) proto.Response {
		resp.Err = err.Error()
		return resp
	}
	switch req.Op {
	case proto.OpConnect:
		if err := s.backend.Connect(req.Ctx); err != nil {
			return fail(err)
		}
	case proto.OpGetSchema:
		info, cust, err := s.backend.GetSchema(req.Ctx, req.Schema)
		if err != nil {
			return fail(err)
		}
		resp.Schema = &proto.SchemaInfo{Name: info.Name, Classes: info.Classes, Parents: info.Parents}
		resp.Cust = cust
	case proto.OpGetClass:
		var data ui.ClassData
		var cust *spec.Customization
		var err error
		if req.Window != "" {
			g, perr := geom.ParseWKT(req.Window)
			if perr != nil {
				return fail(perr)
			}
			data, cust, err = s.backend.GetClassWindowed(req.Ctx, req.Schema, req.Class, g.Bounds())
		} else {
			data, cust, err = s.backend.GetClass(req.Ctx, req.Schema, req.Class)
		}
		if err != nil {
			return fail(err)
		}
		wire := proto.ClassData{
			Schema:       data.Info.Schema,
			Class:        data.Info.Class,
			Attrs:        data.Info.Attrs,
			OIDs:         data.Info.OIDs,
			GeometryAttr: data.Info.GeometryAttr,
		}
		for _, in := range data.Instances {
			wi, err := proto.EncodeInstance(in)
			if err != nil {
				return fail(err)
			}
			wire.Instances = append(wire.Instances, wi)
		}
		resp.Class = &wire
		resp.Cust = cust
	case proto.OpGetValue:
		in, cust, err := s.backend.GetValue(req.Ctx, req.OID)
		if err != nil {
			return fail(err)
		}
		wi, err := proto.EncodeInstance(in)
		if err != nil {
			return fail(err)
		}
		resp.Instance = &wi
		resp.Cust = cust
	case proto.OpSelectWhere:
		filters, err := proto.DecodeFilters(req.Filters)
		if err != nil {
			return fail(err)
		}
		instances, err := s.backend.SelectWhere(req.Ctx, req.Schema, req.Class, filters)
		if err != nil {
			return fail(err)
		}
		for _, in := range instances {
			wi, err := proto.EncodeInstance(in)
			if err != nil {
				return fail(err)
			}
			resp.Instances = append(resp.Instances, wi)
		}
	case proto.OpCallMethod:
		args, err := proto.DecodeValues(req.Args)
		if err != nil {
			return fail(err)
		}
		out, err := s.backend.CallMethod(req.OID, req.Method, args...)
		if err != nil {
			return fail(err)
		}
		wv, err := proto.EncodeValue(out)
		if err != nil {
			return fail(err)
		}
		resp.Value = &wv
	case proto.OpScenarioInsert:
		m, ok := s.backend.(ui.Mutator)
		if !ok {
			return fail(ui.ErrCannotCommit)
		}
		values, err := proto.DecodeValues(req.Args)
		if err != nil {
			return fail(err)
		}
		oid, err := m.ScenarioInsert(req.Ctx, req.Schema, req.Class, values)
		if err != nil {
			return fail(err)
		}
		resp.OID = oid
	case proto.OpScenarioUpdate:
		m, ok := s.backend.(ui.Mutator)
		if !ok {
			return fail(ui.ErrCannotCommit)
		}
		values, err := proto.DecodeValues(req.Args)
		if err != nil {
			return fail(err)
		}
		if err := m.ScenarioUpdate(req.Ctx, req.OID, values); err != nil {
			return fail(err)
		}
	case proto.OpScenarioDelete:
		m, ok := s.backend.(ui.Mutator)
		if !ok {
			return fail(ui.ErrCannotCommit)
		}
		if err := m.ScenarioDelete(req.Ctx, req.OID); err != nil {
			return fail(err)
		}
	case proto.OpTxn:
		m, ok := s.backend.(ui.TxnMutator)
		if !ok {
			return fail(ui.ErrNoTxn)
		}
		ops := make([]ui.TxnOp, len(req.TxnOps))
		for i, w := range req.TxnOps {
			values, err := proto.DecodeValues(w.Values)
			if err != nil {
				return fail(fmt.Errorf("server: txn op %d: %w", i, err))
			}
			op := ui.TxnOp{Schema: w.Schema, Class: w.Class, OID: w.OID, Values: values}
			switch w.Kind {
			case proto.TxnInsert:
				op.Kind = ui.TxnInsert
			case proto.TxnUpdate:
				op.Kind = ui.TxnUpdate
			case proto.TxnDelete:
				op.Kind = ui.TxnDelete
			default:
				return fail(fmt.Errorf("server: txn op %d: unknown kind %q", i, w.Kind))
			}
			ops[i] = op
		}
		oids, err := m.CommitTxn(req.Ctx, ops)
		if err != nil {
			return fail(err)
		}
		resp.OIDs = oids
	case proto.OpStats:
		snap := obs.Default().Snapshot()
		resp.Stats = &snap
	case proto.OpTrace:
		if s.TraceStore == nil {
			return fail(errors.New("server: tracing not enabled"))
		}
		if req.TraceID != 0 {
			td, ok := s.TraceStore.Get(req.TraceID)
			if !ok {
				return fail(fmt.Errorf("server: trace %s not retained", obs.IDString(req.TraceID)))
			}
			resp.Traces = []obs.TraceData{td}
		} else {
			resp.Traces = s.TraceStore.Traces()
		}
	default:
		resp.Err = fmt.Sprintf("server: unknown op %q", req.Op)
	}
	return resp
}
