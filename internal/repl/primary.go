package repl

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/geodb"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/storage"
)

// PrimaryOptions tunes a Primary.
type PrimaryOptions struct {
	// PingEvery is the heartbeat interval on idle ship streams (default 1s):
	// replicas measure lag from the durable LSN the ping carries, and their
	// read deadlines are calibrated to a multiple of it.
	PingEvery time.Duration
	// WriteTimeout bounds every ship-stream write (default 5s): a stuck
	// replica is dropped instead of wedging its ship goroutine.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for a replica's hello (default 10s).
	HandshakeTimeout time.Duration
	// BufferRecords caps the in-memory record tail the primary can stream
	// from (default 4096). A replica that falls further behind than the
	// buffer holds is caught up with a page snapshot instead.
	BufferRecords int
	// BatchRecords is the preferred records-per-frame (default 128); frames
	// stretch past it only to end on a group marker.
	BatchRecords int
	// MaxFrameRecords hard-caps records-per-frame against the protocol's
	// frame size limit (default 1024).
	MaxFrameRecords int
	// SnapshotChunk is pages per snapshot frame (default 128).
	SnapshotChunk int
	// Tracer parents ship/snapshot spans (nil = disabled).
	Tracer *obs.Tracer
	// Log receives an info line per replica snapshot and detach (nil =
	// obs.DiscardLogger).
	Log *slog.Logger
}

func (o *PrimaryOptions) defaults() {
	if o.PingEvery <= 0 {
		o.PingEvery = time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	if o.BufferRecords <= 0 {
		o.BufferRecords = 4096
	}
	if o.BatchRecords <= 0 {
		o.BatchRecords = 128
	}
	if o.MaxFrameRecords <= 0 {
		o.MaxFrameRecords = 1024
	}
	if o.SnapshotChunk <= 0 {
		o.SnapshotChunk = 128
	}
	if o.Log == nil {
		o.Log = obs.DiscardLogger
	}
}

// Primary owns the ship side of replication: it observes the database's WAL
// (every append and durable advance), keeps a bounded in-memory tail of the
// record stream — the log file itself truncates at checkpoints, so it
// cannot be streamed from directly — and serves any number of replica
// connections, each getting either a tail stream from its resume LSN or a
// checkpoint-based page snapshot when that history is gone.
type Primary struct {
	db    *geodb.DB
	wal   *storage.WAL
	opts  PrimaryOptions
	runID uint64

	mu      sync.Mutex
	buf     []storage.Record // contiguous LSNs; buf[0] is the oldest streamable
	durable storage.LSN
	notify  chan struct{} // closed+replaced on durable advance
	conns   map[*shipConn]struct{}
	ln      net.Listener
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

// shipConn is one attached replica from the primary's side.
type shipConn struct {
	addr string

	mu    sync.Mutex
	acked storage.LSN
}

func (sc *shipConn) setAcked(lsn storage.LSN) {
	sc.mu.Lock()
	if lsn > sc.acked {
		sc.acked = lsn
	}
	sc.mu.Unlock()
}

func (sc *shipConn) getAcked() storage.LSN {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.acked
}

// NewPrimary attaches a Primary to db, which must have been opened with a
// WAL — the log is the replication stream.
func NewPrimary(db *geodb.DB, opts PrimaryOptions) (*Primary, error) {
	wal := db.WAL()
	if wal == nil {
		return nil, errors.New("repl: primary requires a WAL-backed database (geodb.Options.Path or WALFile)")
	}
	opts.defaults()
	runID := rand.Uint64()
	for runID == 0 {
		runID = rand.Uint64()
	}
	p := &Primary{
		db:     db,
		wal:    wal,
		opts:   opts,
		runID:  runID,
		notify: make(chan struct{}),
		conns:  make(map[*shipConn]struct{}),
		done:   make(chan struct{}),
	}
	// Observer first, then seed: records appended between the two land in
	// the buffer twice-sourced, deduped by LSN below.
	wal.OnAppend(p.onAppend)
	wal.OnDurable(p.onDurable)
	seed, err := wal.ReadFrom(0)
	if err != nil {
		wal.OnAppend(nil)
		wal.OnDurable(nil)
		return nil, err
	}
	p.mu.Lock()
	if len(seed) > 0 {
		head := seed
		if len(p.buf) > 0 {
			for i, r := range seed {
				if r.LSN >= p.buf[0].LSN {
					head = seed[:i]
					break
				}
			}
		}
		p.buf = append(head, p.buf...)
		if over := len(p.buf) - opts.BufferRecords; over > 0 {
			p.buf = append([]storage.Record(nil), p.buf[over:]...)
		}
	}
	if d := wal.Durable(); d > p.durable {
		p.durable = d
	}
	p.mu.Unlock()
	return p, nil
}

// onAppend runs under the WAL lock: copy the record into the tail buffer.
func (p *Primary) onAppend(r storage.Record) {
	p.mu.Lock()
	p.buf = append(p.buf, r)
	if over := len(p.buf) - p.opts.BufferRecords; over > 0 {
		p.buf = append([]storage.Record(nil), p.buf[over:]...)
	}
	p.mu.Unlock()
}

// onDurable runs under the WAL lock: advance the ship bound and wake ship
// loops.
func (p *Primary) onDurable(lsn storage.LSN) {
	p.mu.Lock()
	if lsn > p.durable {
		p.durable = lsn
	}
	close(p.notify)
	p.notify = make(chan struct{})
	p.mu.Unlock()
}

// RunID identifies this primary's log lineage.
func (p *Primary) RunID() uint64 { return p.runID }

// canStream reports whether records (from, durable] are all present in the
// tail buffer (true with nothing to send counts). A replica ahead of the
// primary is from another lineage and must snapshot.
func (p *Primary) canStream(from storage.LSN) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from > p.durable {
		return false
	}
	if from == p.durable {
		return true
	}
	return len(p.buf) > 0 && p.buf[0].LSN <= from+1
}

// collect returns the buffered records in (from, durable], the current
// durable LSN, and whether the range was fully available (false = the tail
// buffer no longer reaches back to from; the replica must resnapshot).
func (p *Primary) collect(from storage.LSN) ([]storage.Record, storage.LSN, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	durable := p.durable
	if from >= durable {
		return nil, durable, true
	}
	if len(p.buf) == 0 || p.buf[0].LSN > from+1 {
		return nil, durable, false
	}
	var out []storage.Record
	for _, r := range p.buf {
		if r.LSN <= from {
			continue
		}
		if r.LSN > durable {
			break
		}
		out = append(out, r)
	}
	return out, durable, true
}

// Serve accepts replica connections on ln until Close.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("repl: primary closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return nil
			default:
				return err
			}
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.ServeConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves replicas (blocking).
func (p *Primary) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return p.Serve(ln)
}

// ServeConn runs one replica's ship stream to completion (blocking): the
// handshake, an optional snapshot, then the record stream with heartbeats,
// with acks draining on a side goroutine. It closes conn on return.
func (p *Primary) ServeConn(conn net.Conn) {
	defer conn.Close()
	addr := "pipe"
	if ra := conn.RemoteAddr(); ra != nil && ra.String() != "" {
		addr = ra.String()
	}
	sc := &shipConn{addr: addr}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[sc] = struct{}{}
	mAttachedGauge.Set(int64(len(p.conns)))
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, sc)
		mAttachedGauge.Set(int64(len(p.conns)))
		p.mu.Unlock()
	}()
	if err := p.shipTo(conn, sc); err != nil {
		p.opts.Log.Info("replica detached", "replica", addr, "err", err)
	}
}

func (p *Primary) shipTo(conn net.Conn, sc *shipConn) error {
	conn.SetReadDeadline(time.Now().Add(p.opts.HandshakeTimeout))
	var hello msg
	if err := proto.ReadMessage(conn, &hello); err != nil {
		return fmt.Errorf("read hello: %w", err)
	}
	if hello.Kind != kindHello {
		return fmt.Errorf("expected hello, got %q", hello.Kind)
	}
	conn.SetReadDeadline(time.Time{})

	from := storage.LSN(hello.From)
	if hello.RunID != p.runID {
		// Different lineage (or a fresh replica): its LSNs mean nothing
		// against this log. Snapshot from scratch.
		from = 0
	}
	if err := p.write(conn, &msg{Kind: kindHelloOK, RunID: p.runID, Durable: uint64(p.Durable())}); err != nil {
		return err
	}
	if !p.canStream(from) {
		snapLSN, err := p.sendSnapshot(conn)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		from = snapLSN
		sc.setAcked(snapLSN)
		p.opts.Log.Info("replica snapshotted", "replica", sc.addr, "lsn", uint64(snapLSN))
	}

	// Acks ride the same conn in the other direction; any read error closes
	// the conn, which unblocks the ship loop's writes.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			var a msg
			if err := proto.ReadMessage(conn, &a); err != nil {
				conn.Close()
				return
			}
			if a.Kind == kindAck {
				sc.setAcked(storage.LSN(a.Applied))
			}
		}
	}()
	// Close the conn before waiting: the ack reader is parked in a read.
	defer func() { conn.Close(); <-ackDone }()

	ticker := time.NewTicker(p.opts.PingEvery)
	defer ticker.Stop()
	for {
		recs, durable, ok := p.collect(from)
		if !ok {
			// The tail buffer scrolled past this replica's position while it
			// lagged: drop the conn; its reconnect handshake will snapshot.
			mShipGaps.Inc()
			return fmt.Errorf("tail buffer no longer reaches lsn %d (replica too far behind)", from)
		}
		if len(recs) == 0 {
			p.mu.Lock()
			notify := p.notify
			p.mu.Unlock()
			select {
			case <-notify:
			case <-ticker.C:
				if err := p.write(conn, &msg{Kind: kindPing, Durable: uint64(p.Durable())}); err != nil {
					return err
				}
			case <-p.done:
				return nil
			}
			continue
		}
		if err := p.sendRecords(conn, recs, durable); err != nil {
			return err
		}
		from = recs[len(recs)-1].LSN
	}
}

// sendRecords frames recs (contiguous, all durable) preferring to cut each
// frame at a commit or checkpoint marker so a replica at rest between
// frames is always at a servable state. Every durable marker ends a whole
// group, because the WAL appends groups whole and its durable LSN is always
// a group end. The hard cap defends the frame size limit; past it the
// frame's boundary simply trails its last record.
func (p *Primary) sendRecords(conn net.Conn, recs []storage.Record, durable storage.LSN) error {
	sp := p.opts.Tracer.StartRequest("repl.ship", obs.SpanContext{})
	defer sp.Finish()
	sp.Setf("records", "%d", len(recs))
	var frame []wireRecord
	var boundary storage.LSN
	flush := func() error {
		if len(frame) == 0 {
			return nil
		}
		m := &msg{
			Kind:    kindRecords,
			Recs:    frame,
			Durable: uint64(durable),
			LSN:     uint64(boundary),
		}
		if c := sp.Context(); c.Valid() {
			m.Trace = &c
		}
		if err := p.write(conn, m); err != nil {
			return err
		}
		mShippedRecords.Add(uint64(len(frame)))
		frame = frame[:0]
		return nil
	}
	for _, r := range recs {
		frame = append(frame, toWireRecord(r))
		groupEnd := r.Commit || r.Checkpoint
		if groupEnd {
			boundary = r.LSN
		}
		atBoundary := groupEnd && len(frame) >= p.opts.BatchRecords
		if atBoundary || len(frame) >= p.opts.MaxFrameRecords {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// sendSnapshot streams a consistent page snapshot. It holds the database
// write lock for its duration (SnapshotPages), so a slow replica can stall
// mutations for up to WriteTimeout per chunk — catch-up is expected to be
// rare and the alternative (unbounded log retention) costs memory always.
func (p *Primary) sendSnapshot(conn net.Conn) (storage.LSN, error) {
	sp := p.opts.Tracer.StartRequest("repl.snapshot", obs.SpanContext{})
	defer sp.Finish()
	var chunk []wirePage
	pages := 0
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := p.write(conn, &msg{Kind: kindSnap, Pages: chunk}); err != nil {
			return err
		}
		chunk = chunk[:0]
		return nil
	}
	lsn, err := p.db.SnapshotPages(func(id storage.PageID, pg *storage.Page) error {
		data := append([]byte(nil), pg[:]...)
		chunk = append(chunk, wirePage{ID: uint32(id), Data: data, CRC: shipCRC(uint64(id), data)})
		pages++
		if len(chunk) >= p.opts.SnapshotChunk {
			return flush()
		}
		return nil
	})
	if err != nil {
		sp.SetError(err)
		return 0, err
	}
	if err := flush(); err != nil {
		sp.SetError(err)
		return 0, err
	}
	sp.Setf("pages", "%d", pages)
	sp.Setf("lsn", "%d", lsn)
	mShippedSnaps.Inc()
	var tr *obs.SpanContext
	if c := sp.Context(); c.Valid() {
		tr = &c
	}
	return lsn, p.write(conn, &msg{Kind: kindSnapEnd, LSN: uint64(lsn), Durable: uint64(lsn), Trace: tr})
}

func (p *Primary) write(conn net.Conn, m *msg) error {
	if p.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout))
	}
	err := proto.WriteMessage(conn, m)
	if p.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Time{})
	}
	return err
}

// Durable reports the primary's durable LSN (the ship bound).
func (p *Primary) Durable() storage.LSN {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.durable
}

// Status reports the primary's lineage, durable LSN and every attached
// replica's acked LSN and lag.
func (p *Primary) Status() *proto.ReplStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := &proto.ReplStatus{
		Role:      "primary",
		RunID:     p.runID,
		Durable:   uint64(p.durable),
		Healthy:   true,
		Connected: true,
	}
	for sc := range p.conns {
		acked := sc.getAcked()
		lag := uint64(0)
		if p.durable > acked {
			lag = uint64(p.durable - acked)
		}
		st.Replicas = append(st.Replicas, proto.ReplConnStatus{
			Addr: sc.addr, Acked: uint64(acked), Lag: lag,
		})
	}
	sort.Slice(st.Replicas, func(i, j int) bool { return st.Replicas[i].Addr < st.Replicas[j].Addr })
	return st
}

// Close detaches the WAL observers, stops accepting, and drops every
// attached replica.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	p.mu.Unlock()
	close(p.done)
	p.wal.OnAppend(nil)
	p.wal.OnDurable(nil)
	if ln != nil {
		_ = ln.Close()
	}
	p.wg.Wait()
	return nil
}
