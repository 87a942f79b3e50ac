package repl

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/active"
	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/spec"
	"repro/internal/storage"
	"repro/internal/ui"
)

// ReplicaOptions tunes a Replica.
type ReplicaOptions struct {
	// Addr is the primary's replication listener.
	// Dial overrides it for tests (net.Pipe, faultnet wrapping).
	Addr string
	Dial func() (net.Conn, error)
	// NewPager supplies the apply-side page store (default a fresh
	// storage.MemPager per snapshot; the crash matrix injects CrashPagers).
	NewPager func() storage.Pager
	// Name is the follower database's name (default "GEO").
	Name string
	// MaxLag pulls the replica out of read rotation once it has fallen this
	// many records behind the primary's durable LSN: reads then fail with
	// proto.ReplicaUnavailableMsg until it catches back up. 0 = default
	// (1024), negative = unbounded.
	MaxLag int
	// ReadTimeout bounds every ship-stream read (default 5s): the primary
	// heartbeats every PingEvery, so a silent stream means a hung or
	// partitioned primary and the replica reconnects rather than wedging.
	ReadTimeout time.Duration
	// WriteTimeout bounds hello/ack writes (default 5s).
	WriteTimeout time.Duration
	// ReconnectDelay paces redial attempts (default 100ms).
	ReconnectDelay time.Duration
	// SlowApply warns through Log when applying one record batch takes
	// longer than this (0 = never).
	SlowApply time.Duration
	// Tracer parents apply spans under the primary's ship spans (nil =
	// disabled).
	Tracer *obs.Tracer
	// Log receives warn lines on stream loss and restore, lineage changes
	// and slow applies (nil = obs.DiscardLogger).
	Log *slog.Logger
}

func (o *ReplicaOptions) defaults() {
	if o.Name == "" {
		o.Name = "GEO"
	}
	if o.MaxLag == 0 {
		o.MaxLag = 1024
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.ReconnectDelay <= 0 {
		o.ReconnectDelay = 100 * time.Millisecond
	}
	if o.NewPager == nil {
		o.NewPager = func() storage.Pager { return storage.NewMemPager() }
	}
	if o.Dial == nil {
		addr := o.Addr
		o.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.Log == nil {
		o.Log = obs.DiscardLogger
	}
}

// Replica applies the primary's log stream into its own page store and
// serves the idempotent retrieval verbs (it implements ui.Backend) from a
// read-only follower database rebuilt at mutation boundaries. It guarantees
// prefix consistency: every state it ever serves is the primary's state at
// some durable mutation boundary. Mutations are rejected; they belong on
// the primary.
type Replica struct {
	opts ReplicaOptions

	mu             sync.Mutex
	pager          storage.Pager // apply target; nil until first snapshot/record
	applied        storage.LSN   // last record applied (the resume point)
	consistent     storage.LSN   // last mutation boundary fully applied (the serve point)
	primaryDurable storage.LSN   // latest durable LSN heard from the primary
	runID          uint64        // lineage the applied state belongs to
	connected      bool
	conn           net.Conn // live ship conn, closed on Close
	snapshots      int
	reconnects     int

	// dbMu serializes follower rebuilds; the served db/backend are replaced,
	// never mutated. Lock order: dbMu before mu, never the reverse.
	dbMu     sync.Mutex
	db       *geodb.DB
	backendV *ui.DirectBackend
	dbLSN    storage.LSN

	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// NewReplica builds a replica; Start begins the connect/apply loop.
func NewReplica(opts ReplicaOptions) *Replica {
	opts.defaults()
	return &Replica{opts: opts, done: make(chan struct{})}
}

// Start launches the background connect/apply loop.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.run()
}

// Close stops the apply loop and drops the ship connection.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.mu.Unlock()
	close(r.done)
	if conn != nil {
		_ = conn.Close()
	}
	r.wg.Wait()
	return nil
}

func (r *Replica) isClosed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

func (r *Replica) run() {
	defer r.wg.Done()
	// One warn line per outage, not per redial attempt: a dead primary would
	// otherwise emit ReconnectDelay⁻¹ identical lines per second for as long
	// as it stays down. The resolution line closes the bracket.
	var down bool
	var lastErr string
	for {
		if r.isClosed() {
			return
		}
		err := r.session()
		r.mu.Lock()
		wasConnected := r.connected
		r.mu.Unlock()
		if down && wasConnected {
			down = false
			r.opts.Log.Warn("replication stream restored")
		}
		r.setConnected(false)
		if r.isClosed() {
			return
		}
		if err != nil {
			mReconnects.Inc()
			r.mu.Lock()
			r.reconnects++
			r.mu.Unlock()
			if !down || err.Error() != lastErr {
				r.opts.Log.Warn("replication stream lost; reconnecting", "err", err,
					"retry_ms", r.opts.ReconnectDelay.Milliseconds())
			}
			down, lastErr = true, err.Error()
		}
		select {
		case <-r.done:
			return
		case <-time.After(r.opts.ReconnectDelay):
		}
	}
}

// session runs one ship-stream connection: handshake, then apply frames
// until the stream errors (gap, torn record, deadline, conn loss).
func (r *Replica) session() error {
	conn, err := r.opts.Dial()
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	r.conn = conn
	from, lineage := r.applied, r.runID
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		if r.conn == conn {
			r.conn = nil
		}
		r.mu.Unlock()
	}()

	if err := r.write(conn, &msg{Kind: kindHello, From: uint64(from), RunID: lineage}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	var ok msg
	if err := r.read(conn, &ok); err != nil {
		return fmt.Errorf("hello_ok: %w", err)
	}
	if ok.Kind != kindHelloOK {
		return fmt.Errorf("expected hello_ok, got %q", ok.Kind)
	}
	sessionRunID := ok.RunID
	r.mu.Lock()
	lineageSwitch := r.applied != 0 && r.runID != sessionRunID
	r.mu.Unlock()
	if lineageSwitch {
		// A different primary incarnation owns the stream now. Our applied
		// history — and the state we serve — belong to a dead log: LSNs are
		// not comparable across lineages, so holding on to either would mean
		// serving a history no primary has. Discard both; the primary saw
		// our foreign run ID in hello and is already re-seeding this session
		// from zero (snapshot, or the record stream from LSN 1).
		r.dbMu.Lock()
		r.mu.Lock()
		r.pager = nil
		r.applied = 0
		r.consistent = 0
		r.runID = 0
		r.mu.Unlock()
		r.db = nil
		r.backendV = nil
		r.dbLSN = 0
		r.dbMu.Unlock()
		r.opts.Log.Warn("primary lineage changed; discarding state and re-seeding",
			"old_run", lineage, "new_run", sessionRunID)
	}
	r.mu.Lock()
	if r.applied == 0 {
		// Nothing applied yet: whatever arrives builds on this lineage.
		r.runID = sessionRunID
	}
	if d := storage.LSN(ok.Durable); d > r.primaryDurable {
		r.primaryDurable = d
	}
	r.mu.Unlock()
	r.setConnected(true)
	r.updateHealthMetrics()

	// snapPager accumulates an in-flight snapshot; it replaces the live
	// pager only at snap_end, so a half-received snapshot is never visible.
	var snapPager storage.Pager
	for {
		var m msg
		if err := r.read(conn, &m); err != nil {
			return err
		}
		switch m.Kind {
		case kindSnap:
			if snapPager == nil {
				snapPager = r.opts.NewPager()
			}
			if err := applyPages(snapPager, m.Pages); err != nil {
				return fmt.Errorf("snapshot chunk: %w", err)
			}
		case kindSnapEnd:
			r.mu.Lock()
			if snapPager == nil {
				snapPager = r.opts.NewPager() // empty primary: empty snapshot
			}
			r.pager = snapPager
			r.applied = storage.LSN(m.LSN)
			r.consistent = storage.LSN(m.LSN)
			r.runID = sessionRunID
			if d := storage.LSN(m.Durable); d > r.primaryDurable {
				r.primaryDurable = d
			}
			r.snapshots++
			applied := r.applied
			r.mu.Unlock()
			snapPager = nil
			r.updateHealthMetrics()
			if err := r.write(conn, &msg{Kind: kindAck, Applied: uint64(applied)}); err != nil {
				return err
			}
		case kindRecords:
			if r.runID != sessionRunID {
				return errors.New("records from a different log lineage before snapshot")
			}
			applied, err := r.applyBatch(&m)
			if err != nil {
				return err
			}
			r.updateHealthMetrics()
			if err := r.write(conn, &msg{Kind: kindAck, Applied: uint64(applied)}); err != nil {
				return err
			}
		case kindPing:
			r.mu.Lock()
			if d := storage.LSN(m.Durable); d > r.primaryDurable {
				r.primaryDurable = d
			}
			r.mu.Unlock()
			r.updateHealthMetrics()
		default:
			return fmt.Errorf("unexpected ship frame %q", m.Kind)
		}
	}
}

// applyBatch verifies the whole frame (CRCs, strict LSN contiguity) before
// touching the pager, applies the page images, and advances the apply and
// consistency marks. A verification failure leaves state untouched (the
// reconnect resumes from applied); an IO failure mid-apply discards the
// pager entirely — the next handshake snapshots from scratch — because a
// partially-applied frame is not a prefix of anything.
func (r *Replica) applyBatch(m *msg) (storage.LSN, error) {
	var parent obs.SpanContext
	if m.Trace != nil {
		parent = *m.Trace
	}
	sp := r.opts.Tracer.StartRequest("repl.apply", parent)
	defer sp.Finish()
	sp.Setf("records", "%d", len(m.Recs))
	start := time.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.applied + 1
	for _, rec := range m.Recs {
		if !rec.verify() {
			mApplyErrors.Inc()
			err := fmt.Errorf("torn record at lsn %d (crc mismatch)", rec.LSN)
			sp.SetError(err)
			return 0, err
		}
		if rec.LSN != uint64(next) {
			mApplyErrors.Inc()
			err := fmt.Errorf("gap in ship stream: want lsn %d, got %d", next, rec.LSN)
			sp.SetError(err)
			return 0, err
		}
		next++
	}
	if r.pager == nil {
		r.pager = r.opts.NewPager()
	}
	for _, rec := range m.Recs {
		if rec.Checkpoint || rec.Commit {
			continue // markers advance the LSN sequence but carry no page
		}
		if err := writePage(r.pager, storage.PageID(rec.Page), rec.Data); err != nil {
			// The pager now holds half a frame: poison it.
			mApplyErrors.Inc()
			r.pager = nil
			r.applied = 0
			r.consistent = 0
			r.runID = 0
			sp.SetError(err)
			return 0, fmt.Errorf("apply lsn %d: %w (state discarded, will resnapshot)", rec.LSN, err)
		}
	}
	r.applied = next - 1
	if b := storage.LSN(m.LSN); b > r.consistent && b <= r.applied {
		r.consistent = b
	}
	if d := storage.LSN(m.Durable); d > r.primaryDurable {
		r.primaryDurable = d
	}
	mAppliedRecords.Add(uint64(len(m.Recs)))
	if el := time.Since(start); r.opts.SlowApply > 0 && el > r.opts.SlowApply {
		r.opts.Log.Warn("slow apply", "records", len(m.Recs), "dur_ms", el.Milliseconds(),
			"threshold_ms", r.opts.SlowApply.Milliseconds())
	}
	return r.applied, nil
}

// applyPages verifies then writes one snapshot chunk.
func applyPages(pager storage.Pager, pages []wirePage) error {
	for _, pg := range pages {
		if !pg.verify() {
			mApplyErrors.Inc()
			return fmt.Errorf("torn snapshot page %d (crc mismatch)", pg.ID)
		}
	}
	for _, pg := range pages {
		if err := writePage(pager, storage.PageID(pg.ID), pg.Data); err != nil {
			return err
		}
	}
	return nil
}

// writePage writes a full page image, allocating up to id as needed.
func writePage(pager storage.Pager, id storage.PageID, data []byte) error {
	if len(data) != storage.PageSize {
		return fmt.Errorf("page %d image is %d bytes, want %d", id, len(data), storage.PageSize)
	}
	for pager.NumPages() <= uint32(id) {
		if _, err := pager.Allocate(); err != nil {
			return err
		}
	}
	var p storage.Page
	copy(p[:], data)
	return pager.WritePage(id, &p)
}

func (r *Replica) read(conn net.Conn, m *msg) error {
	conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
	return proto.ReadMessage(conn, m)
}

func (r *Replica) write(conn net.Conn, m *msg) error {
	conn.SetWriteDeadline(time.Now().Add(r.opts.WriteTimeout))
	err := proto.WriteMessage(conn, m)
	conn.SetWriteDeadline(time.Time{})
	return err
}

func (r *Replica) setConnected(on bool) {
	r.mu.Lock()
	r.connected = on
	r.mu.Unlock()
	r.updateHealthMetrics()
}

// lagLocked is primaryDurable - applied (0 when caught up or ahead).
func (r *Replica) lagLocked() uint64 {
	if r.primaryDurable > r.applied {
		return uint64(r.primaryDurable - r.applied)
	}
	return 0
}

// healthyLocked gates the read path: connected, synced at least once, and
// within the lag bound.
func (r *Replica) healthyLocked() bool {
	if !r.connected || r.applied == 0 {
		return false
	}
	if r.opts.MaxLag < 0 {
		return true
	}
	return r.lagLocked() <= uint64(r.opts.MaxLag)
}

func (r *Replica) updateHealthMetrics() {
	r.mu.Lock()
	lag := r.lagLocked()
	healthy := r.healthyLocked()
	r.mu.Unlock()
	mReplicaLag.Set(int64(lag))
	if healthy {
		mReplicaHealthy.Set(1)
	} else {
		mReplicaHealthy.Set(0)
	}
}

// Status reports the replica's lineage, log positions, lag and health.
func (r *Replica) Status() *proto.ReplStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &proto.ReplStatus{
		Role:           "replica",
		RunID:          r.runID,
		Applied:        uint64(r.applied),
		PrimaryDurable: uint64(r.primaryDurable),
		Lag:            r.lagLocked(),
		Healthy:        r.healthyLocked(),
		Connected:      r.connected,
	}
}

// Snapshots reports how many full snapshots this replica has installed.
func (r *Replica) Snapshots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshots
}

// Reconnects reports how many times the ship stream was lost and redialed.
func (r *Replica) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

// backend returns the follower backend at the newest servable boundary,
// rebuilding it when the apply loop has advanced past the served state. The
// previous follower database is dropped, not closed: in-flight reads may
// still be walking it, and its memory-backed pager needs no teardown.
func (r *Replica) backend() (*ui.DirectBackend, error) {
	r.mu.Lock()
	healthy := r.healthyLocked()
	target := r.consistent
	atRest := r.applied == r.consistent
	r.mu.Unlock()
	if !healthy {
		mUnavailableRead.Inc()
		return nil, fmt.Errorf("%s: not serving reads (see Status)", proto.ReplicaUnavailableMsg)
	}
	r.dbMu.Lock()
	defer r.dbMu.Unlock()
	if r.backendV != nil && (r.dbLSN >= target || !atRest) {
		// Current (or newer: a post-crash re-catch-up passes through old
		// boundaries again, and reads must never go back in time), or the
		// pager is mid-frame (not at a boundary): serve the last consistent
		// view rather than clone an unservable state.
		return r.backendV, nil
	}
	// Clone the pager at a mutation boundary, under r.mu so no frame can be
	// mid-apply, and re-check at-rest-ness under the lock.
	r.mu.Lock()
	if r.pager == nil || r.applied != r.consistent || r.consistent <= r.dbLSN {
		r.mu.Unlock()
		if r.backendV != nil {
			return r.backendV, nil
		}
		mUnavailableRead.Inc()
		return nil, fmt.Errorf("%s: catching up", proto.ReplicaUnavailableMsg)
	}
	lsn := r.consistent
	clone, err := clonePager(r.pager)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	db, err := geodb.OpenFollower(r.opts.Name, clone)
	if err != nil {
		return nil, fmt.Errorf("repl: follower open at lsn %d: %w", lsn, err)
	}
	r.db = db
	r.backendV = ui.NewDirectBackend(db, active.NewEngine())
	r.dbLSN = lsn
	return r.backendV, nil
}

// clonePager copies every page into a fresh MemPager.
func clonePager(src storage.Pager) (storage.Pager, error) {
	dst := storage.NewMemPager()
	n := src.NumPages()
	for id := storage.PageID(0); uint32(id) < n; id++ {
		var p storage.Page
		if err := src.ReadPage(id, &p); err != nil {
			return nil, err
		}
		if _, err := dst.Allocate(); err != nil {
			return nil, err
		}
		if err := dst.WritePage(id, &p); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ui.Backend: the idempotent retrieval verbs delegate to the follower;
// mutations are refused.

// Connect implements ui.Backend; it doubles as the health probe — it fails
// with ReplicaUnavailableMsg exactly when reads would.
func (r *Replica) Connect(ctx event.Context) error {
	b, err := r.backend()
	if err != nil {
		return err
	}
	return b.Connect(ctx)
}

// GetSchema implements ui.Backend.
func (r *Replica) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	b, err := r.backend()
	if err != nil {
		return geodb.SchemaInfo{}, nil, err
	}
	return b.GetSchema(ctx, schema)
}

// GetClass implements ui.Backend.
func (r *Replica) GetClass(ctx event.Context, schema, class string) (ui.ClassData, *spec.Customization, error) {
	b, err := r.backend()
	if err != nil {
		return ui.ClassData{}, nil, err
	}
	return b.GetClass(ctx, schema, class)
}

// GetClassWindowed implements ui.Backend.
func (r *Replica) GetClassWindowed(ctx event.Context, schema, class string, window geom.Rect) (ui.ClassData, *spec.Customization, error) {
	b, err := r.backend()
	if err != nil {
		return ui.ClassData{}, nil, err
	}
	return b.GetClassWindowed(ctx, schema, class, window)
}

// GetValue implements ui.Backend.
func (r *Replica) GetValue(ctx event.Context, oid catalog.OID) (geodb.Instance, *spec.Customization, error) {
	b, err := r.backend()
	if err != nil {
		return geodb.Instance{}, nil, err
	}
	return b.GetValue(ctx, oid)
}

// SelectWhere implements ui.Backend.
func (r *Replica) SelectWhere(ctx event.Context, schema, class string, filters []geodb.Filter) ([]geodb.Instance, error) {
	b, err := r.backend()
	if err != nil {
		return nil, err
	}
	return b.SelectWhere(ctx, schema, class, filters)
}

// CallMethod implements ui.Backend by refusing: methods may mutate, and a
// replica's state is the primary's log alone.
func (r *Replica) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	return catalog.Value{}, fmt.Errorf("repl: call_method %q is pinned to the primary (%w)", method, geodb.ErrReadOnly)
}
