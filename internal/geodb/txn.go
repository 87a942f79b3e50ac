package geodb

// Transactions are the database's only write path: Begin buffers mutations,
// Commit applies them all under one db.mu hold and one WAL group — the
// group's commit marker is what makes the batch atomic across a crash — and
// a single group-commit wait acknowledges the whole batch. Abort discards the
// buffer. DB.Insert, Update and Delete are one-op transactions. A commit's
// durable-write cost is therefore one fsync *shared* with every concurrently
// committing transaction (DESIGN.md §15), which is how pipelined sessions
// commit concurrently instead of serializing behind the log.
//
// Isolation: buffered ops are invisible to readers until Commit applies them
// (no dirty reads). Within the transaction, Update/Delete and the constraint
// checks of later ops see the buffered state (read-your-writes): the Txn is
// the event.View its Pre_* events carry. Checks read committed state as of
// buffer time, and there is no inter-transaction locking beyond db.mu
// serialization of the apply step: conflicts resolve last-writer-wins,
// except that Commit refuses a batch whose update or delete lost its target.

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/obs"
)

// ErrTxnDone rejects operations on a committed or aborted transaction.
var ErrTxnDone = errors.New("geodb: transaction already committed or aborted")

var (
	mTxnCommitSeconds = obs.Default().Histogram("gis_geodb_txn_commit_seconds", obs.LatencyBuckets)
	mTxnCommits       = obs.Default().Counter("gis_geodb_txn_commits_total")
	mTxnAborts        = obs.Default().Counter("gis_geodb_txn_aborts_total")
)

type txnOpKind uint8

const (
	txnInsert txnOpKind = iota
	txnUpdate
	txnDelete
)

type txnOp struct {
	kind   txnOpKind
	oid    catalog.OID
	schema string
	class  string
	attrs  []catalog.Field
	values []catalog.Value // new values (insert/update)
	data   []byte          // the encoded record (insert/update)
	old    []catalog.Value // pre-state values at buffer time (update/delete), for events
}

// Txn is an explicit transaction. It is not safe for concurrent use by
// multiple goroutines (concurrent transactions each get their own Txn);
// everything it buffers applies atomically at Commit.
type Txn struct {
	db   *DB
	ctx  event.Context
	done bool
	ops  []txnOp
}

// Begin starts a transaction. Mutations buffered on it are invisible to
// readers and other transactions until Commit.
func (db *DB) Begin(ctx event.Context) *Txn {
	return &Txn{db: db, ctx: ctx}
}

// latest returns the index of the last op before end that touches oid, or
// -1 when none does.
func (t *Txn) latest(oid catalog.OID, end int) int {
	for i := end - 1; i >= 0; i-- {
		if t.ops[i].oid == oid {
			return i
		}
	}
	return -1
}

// current resolves oid as the transaction sees it: its own latest buffered
// insert or update, else the committed instance. An instance the
// transaction deleted is gone.
func (t *Txn) current(oid catalog.OID) (Instance, error) {
	i := t.latest(oid, len(t.ops))
	if i < 0 {
		return t.db.lookup(oid)
	}
	op := &t.ops[i]
	if op.kind == txnDelete {
		return Instance{}, fmt.Errorf("%w: oid %d (deleted in this transaction)", ErrNoInstance, oid)
	}
	return Instance{OID: oid, Schema: op.schema, Class: op.class, Attrs: op.attrs, Values: op.values}, nil
}

// Geometries implements event.View: the committed instances of schema.class
// whose geometry bounds intersect window, except those the transaction has
// deleted or rewritten, plus the transaction's own inserts and updates that
// intersect window. Each read takes the read lock on its own and decodes
// only the record's envelope and geometry, as ShapesInWindow's do.
func (t *Txn) Geometries(schema, class string, window geom.Rect, fn func(catalog.OID, geom.Geometry)) error {
	oids, err := t.db.Window(schema, class, window)
	if err != nil {
		return err
	}
	for _, oid := range oids {
		if t.latest(oid, len(t.ops)) >= 0 {
			continue // the transaction's own state stands in for it below
		}
		g, err := t.db.shape(oid)
		if errors.Is(err, ErrNoInstance) {
			continue // deleted since the index search
		}
		if err != nil {
			return err
		}
		if g != nil {
			fn(oid, g)
		}
	}
	for i := range t.ops {
		op := &t.ops[i]
		if op.kind == txnDelete || op.schema != schema || op.class != class || t.latest(op.oid, len(t.ops)) != i {
			continue
		}
		if g, ok := (Instance{Attrs: op.attrs, Values: op.values}).Geometry(); ok && g.Bounds().Intersects(window) {
			fn(op.oid, g)
		}
	}
	return nil
}

// Insert buffers a new instance and returns its OID (allocated now, so the
// transaction can reference it; an abort or a refused record leaves a gap
// in the OID sequence, which the directory tolerates). The PreInsert event
// fires at buffer time and may veto — a veto rejects this op only, not the
// transaction. The record is encoded here, so one too large for a page is
// refused before Commit.
func (t *Txn) Insert(schema, class string, values []catalog.Value) (catalog.OID, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	db := t.db
	if db.readOnly {
		return 0, ErrReadOnly
	}
	attrs, err := db.typecheck(schema, class, values)
	if err != nil {
		return 0, err
	}
	pre := event.Event{Kind: event.PreInsert, Schema: schema, Class: class, Ctx: t.ctx, New: values, View: t}
	if err := db.bus.Emit(pre); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	db.mu.Lock()
	db.nextOID++
	oid := db.nextOID
	db.mu.Unlock()
	data, err := encodeObjectRecord(oid, schema, class, values)
	if err != nil {
		return 0, err
	}
	t.ops = append(t.ops, txnOp{
		kind: txnInsert, oid: oid, schema: schema, class: class,
		attrs: attrs, values: values, data: data,
	})
	return oid, nil
}

// Update buffers a full-value update of oid. The pre-state for the event is
// the transaction's own buffered state if it wrote oid, else the committed
// state. The record is encoded and sized here, as for Insert.
func (t *Txn) Update(oid catalog.OID, values []catalog.Value) error {
	if t.done {
		return ErrTxnDone
	}
	db := t.db
	if db.readOnly {
		return ErrReadOnly
	}
	old, err := t.current(oid)
	if err != nil {
		return err
	}
	attrs, err := db.typecheck(old.Schema, old.Class, values)
	if err != nil {
		return err
	}
	data, err := encodeObjectRecord(oid, old.Schema, old.Class, values)
	if err != nil {
		return err
	}
	pre := event.Event{Kind: event.PreUpdate, Schema: old.Schema, Class: old.Class,
		OID: oid, Ctx: t.ctx, Old: old.Values, New: values, View: t}
	if err := db.bus.Emit(pre); err != nil {
		return fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	t.ops = append(t.ops, txnOp{
		kind: txnUpdate, oid: oid, schema: old.Schema, class: old.Class,
		attrs: attrs, values: values, data: data, old: old.Values,
	})
	return nil
}

// Delete buffers the removal of oid.
func (t *Txn) Delete(oid catalog.OID) error {
	if t.done {
		return ErrTxnDone
	}
	db := t.db
	if db.readOnly {
		return ErrReadOnly
	}
	old, err := t.current(oid)
	if err != nil {
		return err
	}
	pre := event.Event{Kind: event.PreDelete, Schema: old.Schema, Class: old.Class,
		OID: oid, Ctx: t.ctx, Old: old.Values, View: t}
	if err := db.bus.Emit(pre); err != nil {
		return fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	t.ops = append(t.ops, txnOp{
		kind: txnDelete, oid: oid, schema: old.Schema, class: old.Class, old: old.Values,
	})
	return nil
}

// Len reports how many ops the transaction has buffered.
func (t *Txn) Len() int { return len(t.ops) }

// Abort discards the transaction. Buffered ops are dropped; OIDs allocated
// by Insert stay consumed.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.ops = nil
	mTxnAborts.Inc()
}

// Commit applies every buffered op under one WAL group and acknowledges
// only when the group's commit marker is durable — via the group commit it
// shares with every concurrent committer. Post events fire after the
// acknowledgement, in buffer order. An error means the transaction did not
// durably commit: an unterminated WAL group never replays, so a restart
// restores the pre-transaction state. An update or delete whose target is
// gone fails the commit before anything applies, so it changes nothing in
// process either.
func (t *Txn) Commit() (rerr error) {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	db := t.db
	if len(t.ops) == 0 {
		return nil
	}
	sw := obs.Start(mTxnCommitSeconds)
	defer sw.Stop()
	sp := db.tracer.StartSpan("geodb.txn_commit", t.ctx.Trace)
	sp.Setf("ops", "%d", len(t.ops))
	defer func() { sp.SetError(rerr).Finish() }()
	db.mu.Lock()
	if err := t.checkTargetsLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	seq := db.commitSeq + 1
	for i := range t.ops {
		op := &t.ops[i]
		var err error
		switch op.kind {
		case txnInsert:
			err = db.applyInsertLocked(seq, op)
		case txnUpdate:
			err = db.applyUpdateLocked(seq, op)
		case txnDelete:
			err = db.applyDeleteLocked(seq, op.oid)
		}
		if err != nil {
			db.mu.Unlock()
			return fmt.Errorf("geodb: txn op %d: %w", i, err)
		}
	}
	end, err := db.closeGroupLocked(seq)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if err := db.commitDurable(sp, end); err != nil {
		return err
	}
	mTxnCommits.Inc()
	for i := range t.ops {
		op := &t.ops[i]
		var post event.Event
		switch op.kind {
		case txnInsert:
			post = event.Event{Kind: event.PostInsert, Schema: op.schema, Class: op.class,
				OID: op.oid, Ctx: t.ctx, New: op.values}
		case txnUpdate:
			post = event.Event{Kind: event.PostUpdate, Schema: op.schema, Class: op.class,
				OID: op.oid, Ctx: t.ctx, Old: op.old, New: op.values}
		case txnDelete:
			post = event.Event{Kind: event.PostDelete, Schema: op.schema, Class: op.class,
				OID: op.oid, Ctx: t.ctx, Old: op.old}
		}
		if err := db.bus.Emit(post); err != nil && rerr == nil {
			rerr = err
		}
	}
	return rerr
}

// checkTargetsLocked refuses the batch when an update or delete has lost its
// committed target: another committer may have deleted it since the op was
// buffered. A target an earlier op of the transaction wrote was checked when
// this op was buffered (an op after a delete is refused there). Callers hold
// db.mu.
func (t *Txn) checkTargetsLocked() error {
	for i := range t.ops {
		op := &t.ops[i]
		if op.kind == txnInsert || t.latest(op.oid, i) >= 0 {
			continue
		}
		if _, ok := t.db.instances[op.oid]; !ok {
			return fmt.Errorf("geodb: txn op %d: %w: oid %d", i, ErrNoInstance, op.oid)
		}
	}
	return nil
}
