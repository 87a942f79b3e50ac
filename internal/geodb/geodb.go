// Package geodb implements the object-oriented geographic DBMS the paper's
// interface architecture sits on: typed object instances stored in heap
// files behind a buffer pool, R-tree spatial indexes over geometry
// attributes, the exploratory retrieval primitives (Get_Schema, Get_Class,
// Get_Value), predicate and spatial queries, registered methods, and —
// centrally for this reproduction — emission of every database event onto a
// bus the active mechanism intercepts.
package geodb

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Errors returned by database operations.
var (
	ErrNoInstance = errors.New("geodb: no such instance")
	ErrNoMethod   = errors.New("geodb: no such method")
	ErrVetoed     = errors.New("geodb: operation vetoed by rule")
	// ErrReadOnly rejects every mutation on a follower-opened database: a
	// replica's state is defined entirely by the primary's log, so local
	// writes would fork it off the primary's history.
	ErrReadOnly = errors.New("geodb: read-only database")
)

// Options configures a database.
type Options struct {
	// Name identifies the database (the paper's example uses "GEO").
	Name string
	// PoolSize is the buffer pool capacity in pages; 0 means 256.
	PoolSize int
	// Policy selects the buffer replacement policy.
	Policy storage.ReplacementPolicy
	// Path, when non-empty, stores pages in a file; otherwise in memory.
	Path string

	// DisableWAL turns the write-ahead log off even for a file-backed
	// database, reverting to flush-on-close durability (the pre-WAL
	// behavior; the BENCH_PR5 baseline).
	DisableWAL bool
	// WALPath overrides where the log lives; default Path+".wal".
	WALPath string
	// CheckpointEvery checkpoints (flush dirty pages, sync the data file,
	// truncate the log) after this many commits, bounding both the log size
	// and replay work at the next Open. 0 means 1024; negative disables
	// automatic checkpoints (Checkpoint can still be called directly).
	CheckpointEvery int

	// Pager injects the page store directly, overriding Path (crash-matrix
	// tests wrap a MemPager in a storage.CrashPager here).
	Pager storage.Pager
	// WALFile injects the log file, enabling the WAL even without a Path
	// (crash-matrix tests use a storage.CrashLogFile).
	WALFile storage.LogFile

	// ReadOnly rejects every mutation with ErrReadOnly. Replication opens a
	// replica's applied pages this way (see OpenFollower): reads are served
	// normally, writes belong to the primary alone.
	ReadOnly bool
}

type classKey struct {
	schema, class string
}

type methodKey struct {
	schema, class, method string
}

type instanceMeta struct {
	rid    storage.RID
	schema string
	class  string
	// born is the commit sequence of the last write to this instance; a
	// snapshot at seq S sees the current record only when born <= S (older
	// states come from the undo versions, see snapshot.go).
	born uint64
}

// MethodImpl is a registered method implementation. It receives the
// database, the receiver instance and the call arguments.
type MethodImpl func(db *DB, self Instance, args ...catalog.Value) (catalog.Value, error)

// Instance is a materialized object: its identity, class and attribute
// values in effective-attribute order.
type Instance struct {
	OID    catalog.OID
	Schema string
	Class  string
	// Attrs lists the effective (inherited + own) attribute descriptors.
	Attrs []catalog.Field
	// Values holds one value per attribute, parallel to Attrs.
	Values []catalog.Value
}

// Get returns the value of the named attribute.
func (in Instance) Get(attr string) (catalog.Value, bool) {
	for i, a := range in.Attrs {
		if a.Name == attr {
			return in.Values[i], true
		}
	}
	return catalog.Value{}, false
}

// Geometry returns the instance's first geometry value, if any.
func (in Instance) Geometry() (geom.Geometry, bool) {
	for i, a := range in.Attrs {
		if a.Type.Kind == catalog.KindGeometry && !in.Values[i].IsNull() {
			return in.Values[i].Geom, in.Values[i].Geom != nil
		}
	}
	return nil, false
}

// DB is an object-oriented geographic database. All exported methods are
// safe for concurrent use: reads share an RWMutex; writes serialize.
type DB struct {
	name     string
	cat      *catalog.Catalog
	bus      *event.Bus
	pager    storage.Pager
	wal      *storage.WAL // nil when the WAL is disabled
	readOnly bool

	// tracer stamps spans on the exploratory primitives and mutations.
	// Disabled (nil sink) until core.EnableTracing attaches one; every
	// span operation below is a nil-safe no-op then.
	tracer obs.Tracer

	// checkpointEvery/ckptMu drive automatic checkpoints: every commit
	// counts, and the commit that reaches the threshold performs the
	// checkpoint before acknowledging.
	checkpointEvery int
	ckptMu          sync.Mutex
	commits         int
	replayed        int // WAL records applied by Open

	mu        sync.RWMutex
	heap      *storage.HeapFile
	instances map[catalog.OID]instanceMeta
	byClass   map[classKey][]catalog.OID
	spatial   map[classKey]*rtree.Tree
	methods   map[methodKey]MethodImpl
	nextOID   catalog.OID
	// catalogRID locates the reserved catalog snapshot record, once written.
	catalogRID *storage.RID

	// commitSeq counts applied commit groups (single mutations and explicit
	// transactions alike); it advances under db.mu at each group close and is
	// the version axis snapshots read against. undo retains pre-states that
	// open snapshots may still need; snapMu guards the active-snapshot
	// registry (always acquired after db.mu when both are held).
	commitSeq uint64
	undo      map[catalog.OID][]undoVersion
	snapMu    sync.Mutex
	snaps     map[uint64]int

	// UseSpatialIndex can be disabled to force sequential scans; the B6
	// experiment ablates it.
	UseSpatialIndex bool
}

// Open creates a database with the given options. When the WAL is enabled
// (file-backed databases by default, or an injected WALFile), acknowledged
// mutations left unflushed by a crash are replayed from the log — before
// the catalog recovery scan — and the recovered state is checkpointed so
// the log starts the new run empty.
func Open(opts Options) (*DB, error) {
	poolSize := opts.PoolSize
	if poolSize == 0 {
		poolSize = 256
	}
	pager := opts.Pager
	if pager == nil {
		if opts.Path != "" {
			fp, err := storage.OpenFilePager(opts.Path)
			if err != nil {
				return nil, err
			}
			pager = fp
		} else {
			pager = storage.NewMemPager()
		}
	}
	var wal *storage.WAL
	var replayed int
	if !opts.DisableWAL {
		logFile := opts.WALFile
		if logFile == nil && opts.Path != "" {
			walPath := opts.WALPath
			if walPath == "" {
				walPath = opts.Path + ".wal"
			}
			lf, err := storage.OpenLogFile(walPath)
			if err != nil {
				_ = pager.Close()
				return nil, err
			}
			logFile = lf
		}
		if logFile != nil {
			w, err := storage.OpenWAL(logFile, storage.WALOptions{})
			if err != nil {
				_ = pager.Close()
				return nil, err
			}
			// Redo acknowledged mutations the data file never saw, make them
			// durable in the data file, then truncate: recovery itself ends
			// with a checkpoint, so a crash loop never replays twice.
			if replayed, err = w.ReplayInto(pager); err != nil {
				_ = pager.Close()
				return nil, err
			}
			if err := pager.Sync(); err != nil {
				_ = pager.Close()
				return nil, err
			}
			if err := w.Checkpoint(); err != nil {
				_ = pager.Close()
				return nil, err
			}
			wal = w
		}
	}
	pool := storage.NewBufferPool(pager, poolSize, opts.Policy)
	if wal != nil {
		pool.AttachWAL(wal)
	}
	name := opts.Name
	if name == "" {
		name = "GEO"
	}
	checkpointEvery := opts.CheckpointEvery
	switch {
	case checkpointEvery == 0:
		checkpointEvery = 1024
	case checkpointEvery < 0:
		checkpointEvery = 0 // disabled
	}
	db := &DB{
		name:            name,
		cat:             catalog.New(),
		bus:             event.NewBus(),
		pager:           pager,
		wal:             wal,
		readOnly:        opts.ReadOnly,
		checkpointEvery: checkpointEvery,
		replayed:        replayed,
		heap:            storage.NewHeapFile(pool),
		instances:       make(map[catalog.OID]instanceMeta),
		byClass:         make(map[classKey][]catalog.OID),
		spatial:         make(map[classKey]*rtree.Tree),
		methods:         make(map[methodKey]MethodImpl),
		undo:            make(map[catalog.OID][]undoVersion),
		snaps:           make(map[uint64]int),
		UseSpatialIndex: true,
	}
	if pager.NumPages() > 0 {
		// Reopening an existing file: rebuild catalog, directory, indexes.
		if err := db.recover(); err != nil {
			_ = pool.Close()
			if wal != nil {
				_ = wal.Close()
			}
			return nil, err
		}
	}
	return db, nil
}

// OpenFollower opens a read-only database over pages a replica applied from
// the primary's log: no WAL of its own (the primary's log IS the history),
// every mutation rejected with ErrReadOnly, catalog/directory/indexes
// rebuilt from the pages by the same recovery scan a restart uses.
func OpenFollower(name string, pager storage.Pager) (*DB, error) {
	return Open(Options{Name: name, Pager: pager, DisableWAL: true, ReadOnly: true})
}

// SnapshotPages streams a consistent point-in-time copy of every page to fn,
// for replication catch-up: under the database write lock (no mutation can
// interleave) it checkpoints — flushing every dirty page into the pager and
// truncating the log — then hands fn each page image in id order. The
// returned LSN is the checkpoint marker's: the snapshot is exactly the
// primary's durable history through that LSN, and the log stream continues
// at the next record. fn must not retain p.
func (db *DB) SnapshotPages(fn func(id storage.PageID, p *storage.Page) error) (storage.LSN, error) {
	if db.wal == nil {
		return 0, errors.New("geodb: snapshot requires a WAL-backed database")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkpointLocked(nil); err != nil {
		return 0, err
	}
	lsn := db.wal.Durable()
	n := db.pager.NumPages()
	for id := storage.PageID(0); uint32(id) < n; id++ {
		var p storage.Page
		if err := db.pager.ReadPage(id, &p); err != nil {
			return 0, err
		}
		if err := fn(id, &p); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// Catalog exposes the metadata layer.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Bus exposes the database event bus; the active mechanism subscribes here.
func (db *DB) Bus() *event.Bus { return db.bus }

// Tracer exposes the database's tracer so a span sink can be attached.
func (db *DB) Tracer() *obs.Tracer { return &db.tracer }

// Pool exposes buffer pool statistics for the B5 experiment.
func (db *DB) Pool() *storage.BufferPool { return db.heap.Pool() }

// WAL exposes the write-ahead log, or nil when disabled.
func (db *DB) WAL() *storage.WAL { return db.wal }

// ReplayedRecords reports how many WAL records Open applied — the measure
// of how much work the last checkpoint before the crash saved.
func (db *DB) ReplayedRecords() int { return db.replayed }

// Close checkpoints (when the WAL is on), flushes and closes the
// underlying storage.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	if db.wal != nil {
		if err := db.checkpointLocked(nil); err != nil {
			firstErr = err
		}
	}
	if err := db.heap.Pool().Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Checkpoint flushes every dirty page (each preceded by the WAL sync the
// writeback gate demands), syncs the data file, and truncates the log. It
// excludes writers for its duration — the flush/truncate pair must not
// interleave with new page images, or a post-flush image could be
// discarded while its page is still dirty. A no-op without a WAL.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked(nil)
}

// checkpointLocked does the work under db.mu; sp (nil ok) parents the
// pool-flush span so a checkpoint triggered inside a traced mutation shows
// up in that mutation's tree.
func (db *DB) checkpointLocked(sp *obs.Span) error {
	fl := sp.Child("pool.flush")
	err := db.heap.Pool().Flush()
	fl.SetError(err).Finish()
	if err != nil {
		return err
	}
	//vet:ignore lockheld -- checkpoint is atomic w.r.t. committers by design; the caller's db.mu is what makes it so
	if err := db.pager.Sync(); err != nil {
		return err
	}
	//vet:ignore lockheld -- see above: the WAL checkpoint must land inside the same quiesced window
	return db.wal.Checkpoint()
}

// closeGroupLocked terminates the current mutation group: the WAL gets its
// commit marker (see storage.WAL.EndGroup) and the in-memory commit
// sequence advances to seq, publishing the group's effects to snapshots
// begun afterwards. Callers must hold db.mu: the lock is what keeps group
// records contiguous in the log, which is what makes recovery and replicas
// see only whole-mutation prefixes. The returned LSN is the group end the
// committer must wait on before acknowledging.
func (db *DB) closeGroupLocked(seq uint64) (storage.LSN, error) {
	db.commitSeq = seq
	if db.wal == nil {
		return 0, nil
	}
	return db.wal.EndGroup()
}

// commitDurable is the acknowledgement gate every mutation passes on its
// way out: the WAL group commit makes the log durable through the
// mutation's group end — concurrent committers coalesce on one fsync — and
// the commit that reaches CheckpointEvery performs the periodic incremental
// checkpoint. Mutations return errors from here instead of acknowledging.
// sp (nil ok) is the mutation's span; the WAL commit and any due checkpoint
// become its children.
func (db *DB) commitDurable(sp *obs.Span, end storage.LSN) error {
	if db.wal == nil {
		return nil
	}
	wsp := sp.Child("wal.commit")
	err := db.wal.WaitDurable(end)
	wsp.SetError(err).Finish()
	if err != nil {
		return err
	}
	if db.checkpointEvery <= 0 {
		return nil
	}
	db.ckptMu.Lock()
	db.commits++
	due := db.commits >= db.checkpointEvery
	if due {
		db.commits = 0
	}
	db.ckptMu.Unlock()
	if due {
		ck := sp.Child("db.checkpoint")
		err := db.checkpointIncremental(ck)
		ck.SetError(err).Finish()
		return err
	}
	return nil
}

// checkpointIncremental is the periodic checkpoint on the commit path. It
// is two-phase so the engine never pauses for time proportional to the
// dirty set: a fuzzy first pass (FlushSettled) writes back committed dirty
// pages while writers keep committing, and only the residue dirtied during
// that pass is flushed under the write lock before the log is cut.
func (db *DB) checkpointIncremental(sp *obs.Span) error {
	fz := sp.Child("pool.flush_settled")
	err := db.heap.Pool().FlushSettled()
	fz.SetError(err).Finish()
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked(sp)
}

// DefineSchema creates a schema and persists the catalog.
func (db *DB) DefineSchema(name string) error {
	if _, err := db.cat.DefineSchema(name); err != nil {
		return err
	}
	return db.persistCatalog()
}

// DefineClass adds a class to a schema and persists the catalog.
func (db *DB) DefineClass(schema string, cls catalog.Class) error {
	if err := db.cat.DefineClass(schema, cls); err != nil {
		return err
	}
	return db.persistCatalog()
}

// RegisterMethod installs the implementation of a method declared in the
// catalog. It fails if the class does not declare the method.
func (db *DB) RegisterMethod(schema, class, method string, impl MethodImpl) error {
	s, err := db.cat.Schema(schema)
	if err != nil {
		return err
	}
	methods, err := s.EffectiveMethods(class)
	if err != nil {
		return err
	}
	found := false
	for _, m := range methods {
		if m.Name == method {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: %s.%s.%s not declared", ErrNoMethod, schema, class, method)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.methods[methodKey{schema, class, method}] = impl
	return nil
}

// CallMethod invokes a registered method on an instance. Lookup walks the
// inheritance chain so subclasses inherit implementations.
func (db *DB) CallMethod(oid catalog.OID, method string, args ...catalog.Value) (catalog.Value, error) {
	in, err := db.lookup(oid)
	if err != nil {
		return catalog.Value{}, err
	}
	s, err := db.cat.Schema(in.Schema)
	if err != nil {
		return catalog.Value{}, err
	}
	db.mu.RLock()
	var impl MethodImpl
	for class := in.Class; class != ""; {
		if m, ok := db.methods[methodKey{in.Schema, class, method}]; ok {
			impl = m
			break
		}
		c, cerr := s.Class(class)
		if cerr != nil {
			break
		}
		class = c.Parent
	}
	db.mu.RUnlock()
	if impl == nil {
		return catalog.Value{}, fmt.Errorf("%w: %s on %s.%s", ErrNoMethod, method, in.Schema, in.Class)
	}
	return impl(db, in, args...)
}

// lookup materializes an instance without emitting events (internal use).
// The read lock is held across the heap read: a concurrent writer could
// otherwise mutate the page bytes under the materialization.
func (db *DB) lookup(oid catalog.OID) (Instance, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lookupLocked(oid)
}

// lookupLocked is lookup for callers already holding db.mu (either mode).
func (db *DB) lookupLocked(oid catalog.OID) (Instance, error) {
	meta, ok := db.instances[oid]
	if !ok {
		return Instance{}, fmt.Errorf("%w: oid %d", ErrNoInstance, oid)
	}
	data, err := db.heap.Get(meta.rid)
	if err != nil {
		return Instance{}, fmt.Errorf("geodb: read instance %d: %w", oid, err)
	}
	tag, storedOID, storedSchema, storedClass, values, err := decodeEnvelope(data)
	if err != nil {
		return Instance{}, fmt.Errorf("geodb: decode instance %d: %w", oid, err)
	}
	if tag != recTagObject || storedOID != oid || storedSchema != meta.schema || storedClass != meta.class {
		return Instance{}, fmt.Errorf("%w: record identity mismatch for oid %d (%d %s.%s)",
			ErrCorrupt, oid, storedOID, storedSchema, storedClass)
	}
	s, err := db.cat.Schema(meta.schema)
	if err != nil {
		return Instance{}, err
	}
	attrs, err := s.EffectiveAttrs(meta.class)
	if err != nil {
		return Instance{}, err
	}
	if len(values) != len(attrs) {
		return Instance{}, fmt.Errorf("geodb: instance %d has %d values for %d attributes",
			oid, len(values), len(attrs))
	}
	return Instance{OID: oid, Schema: meta.schema, Class: meta.class, Attrs: attrs, Values: values}, nil
}

// typecheck validates values against the class's effective attributes and
// returns the attribute descriptors.
func (db *DB) typecheck(schema, class string, values []catalog.Value) ([]catalog.Field, error) {
	s, err := db.cat.Schema(schema)
	if err != nil {
		return nil, err
	}
	attrs, err := s.EffectiveAttrs(class)
	if err != nil {
		return nil, err
	}
	if len(values) != len(attrs) {
		return nil, fmt.Errorf("%w: %d values for %d attributes of %s.%s",
			catalog.ErrTypeMismatch, len(values), len(attrs), schema, class)
	}
	for i, v := range values {
		if err := v.Conforms(attrs[i].Type); err != nil {
			return nil, fmt.Errorf("attribute %q: %w", attrs[i].Name, err)
		}
	}
	return attrs, nil
}

// ValuesFromMap arranges a name→value map into effective-attribute order,
// filling unnamed attributes with null. Unknown names are an error.
func (db *DB) ValuesFromMap(schema, class string, m map[string]catalog.Value) ([]catalog.Value, error) {
	s, err := db.cat.Schema(schema)
	if err != nil {
		return nil, err
	}
	attrs, err := s.EffectiveAttrs(class)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(attrs))
	for i, a := range attrs {
		index[a.Name] = i
	}
	values := make([]catalog.Value, len(attrs))
	for name, v := range m {
		i, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("%w: attribute %q of %s.%s", catalog.ErrUnknown, name, schema, class)
		}
		values[i] = v
	}
	return values, nil
}

// Insert stores a new instance and returns its OID. Pre/Post insert events
// are emitted; an error from a PreInsert handler vetoes the insert.
func (db *DB) Insert(ctx event.Context, schema, class string, values []catalog.Value) (_ catalog.OID, rerr error) {
	if db.readOnly {
		return 0, ErrReadOnly
	}
	sw := obs.Start(mInsertSeconds)
	defer sw.Stop()
	sp := db.tracer.StartSpan("geodb.insert", ctx.Trace)
	sp.Set("class", schema+"."+class)
	defer func() { sp.SetError(rerr).Finish() }()
	attrs, err := db.typecheck(schema, class, values)
	if err != nil {
		return 0, err
	}
	pre := event.Event{Kind: event.PreInsert, Schema: schema, Class: class, Ctx: ctx, New: values}
	if err := db.bus.Emit(pre); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	db.mu.Lock()
	seq := db.commitSeq + 1
	oid, err := db.applyInsertLocked(seq, 0, schema, class, attrs, values)
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	end, err := db.closeGroupLocked(seq)
	db.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := db.commitDurable(sp, end); err != nil {
		return 0, err
	}
	post := event.Event{Kind: event.PostInsert, Schema: schema, Class: class, OID: oid, Ctx: ctx, New: values}
	if err := db.bus.Emit(post); err != nil {
		return oid, err
	}
	return oid, nil
}

// InsertMap is Insert with named values.
func (db *DB) InsertMap(ctx event.Context, schema, class string, m map[string]catalog.Value) (catalog.OID, error) {
	values, err := db.ValuesFromMap(schema, class, m)
	if err != nil {
		return 0, err
	}
	return db.Insert(ctx, schema, class, values)
}

// Update replaces the instance's values. PreUpdate handlers may veto (the
// topological-constraint rules of [11] do exactly that).
func (db *DB) Update(ctx event.Context, oid catalog.OID, values []catalog.Value) (rerr error) {
	if db.readOnly {
		return ErrReadOnly
	}
	sp := db.tracer.StartSpan("geodb.update", ctx.Trace)
	sp.Setf("oid", "%d", oid)
	defer func() { sp.SetError(rerr).Finish() }()
	old, err := db.lookup(oid)
	if err != nil {
		return err
	}
	if _, err := db.typecheck(old.Schema, old.Class, values); err != nil {
		return err
	}
	pre := event.Event{Kind: event.PreUpdate, Schema: old.Schema, Class: old.Class,
		OID: oid, Ctx: ctx, Old: old.Values, New: values}
	if err := db.bus.Emit(pre); err != nil {
		return fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	db.mu.Lock()
	seq := db.commitSeq + 1
	if err := db.applyUpdateLocked(seq, oid, values); err != nil {
		db.mu.Unlock()
		return err
	}
	end, err := db.closeGroupLocked(seq)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if err := db.commitDurable(sp, end); err != nil {
		return err
	}
	post := event.Event{Kind: event.PostUpdate, Schema: old.Schema, Class: old.Class,
		OID: oid, Ctx: ctx, Old: old.Values, New: values}
	return db.bus.Emit(post)
}

// UpdateAttr updates a single attribute by name.
func (db *DB) UpdateAttr(ctx event.Context, oid catalog.OID, attr string, v catalog.Value) error {
	in, err := db.lookup(oid)
	if err != nil {
		return err
	}
	values := make([]catalog.Value, len(in.Values))
	copy(values, in.Values)
	found := false
	for i, a := range in.Attrs {
		if a.Name == attr {
			values[i] = v
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: attribute %q of %s.%s", catalog.ErrUnknown, attr, in.Schema, in.Class)
	}
	return db.Update(ctx, oid, values)
}

// Delete removes an instance. PreDelete handlers may veto.
func (db *DB) Delete(ctx event.Context, oid catalog.OID) (rerr error) {
	if db.readOnly {
		return ErrReadOnly
	}
	sp := db.tracer.StartSpan("geodb.delete", ctx.Trace)
	sp.Setf("oid", "%d", oid)
	defer func() { sp.SetError(rerr).Finish() }()
	old, err := db.lookup(oid)
	if err != nil {
		return err
	}
	pre := event.Event{Kind: event.PreDelete, Schema: old.Schema, Class: old.Class,
		OID: oid, Ctx: ctx, Old: old.Values}
	if err := db.bus.Emit(pre); err != nil {
		return fmt.Errorf("%w: %v", ErrVetoed, err)
	}
	db.mu.Lock()
	seq := db.commitSeq + 1
	if err := db.applyDeleteLocked(seq, oid); err != nil {
		db.mu.Unlock()
		return err
	}
	end, err := db.closeGroupLocked(seq)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if err := db.commitDurable(sp, end); err != nil {
		return err
	}
	post := event.Event{Kind: event.PostDelete, Schema: old.Schema, Class: old.Class,
		OID: oid, Ctx: ctx, Old: old.Values}
	return db.bus.Emit(post)
}

// The applyXxxLocked helpers below are the shared mutation cores: the
// single-mutation methods (Insert/Update/Delete) wrap one of them in its own
// group, and Txn.Commit applies a whole buffered batch under one db.mu hold
// and one WAL group. All of them require db.mu held for writing, apply at
// commit sequence seq, and leave the WAL group open — the caller closes it
// with closeGroupLocked. On error the in-memory state may be partially
// applied but the group is never closed, so the records cannot replay and a
// restart restores the pre-group state (in-process divergence until then is
// the same contract the pre-transaction error paths had).

// applyInsertLocked stores a new instance. A zero oid allocates the next
// OID; a non-zero oid was pre-allocated by Txn.Insert.
func (db *DB) applyInsertLocked(seq uint64, oid catalog.OID, schema, class string, attrs []catalog.Field, values []catalog.Value) (catalog.OID, error) {
	assigned := false
	if oid == 0 {
		db.nextOID++
		oid = db.nextOID
		assigned = true
	}
	data, err := encodeObjectRecord(oid, schema, class, values)
	if err != nil {
		if assigned {
			db.nextOID--
		}
		return 0, err
	}
	rid, err := db.heap.Insert(data)
	if err != nil {
		if assigned {
			db.nextOID--
		}
		return 0, err
	}
	key := classKey{schema, class}
	db.instances[oid] = instanceMeta{rid: rid, schema: schema, class: class, born: seq}
	db.byClass[key] = append(db.byClass[key], oid)
	if b, ok := geometryBounds(attrs, values); ok {
		tree, found := db.spatial[key]
		if !found {
			tree = rtree.New()
			db.spatial[key] = tree
		}
		tree.Insert(b, uint64(oid))
	}
	return oid, nil
}

// applyUpdateLocked replaces an instance's values. The pre-state is
// materialized under the lock (the caller's earlier lookup may be stale)
// and retained for open snapshots before the record changes.
func (db *DB) applyUpdateLocked(seq uint64, oid catalog.OID, values []catalog.Value) error {
	old, err := db.lookupLocked(oid)
	if err != nil {
		return err
	}
	data, err := encodeObjectRecord(oid, old.Schema, old.Class, values)
	if err != nil {
		return err
	}
	meta := db.instances[oid]
	db.saveVersionLocked(old, meta.born, seq)
	if err := db.heap.Update(meta.rid, data); err != nil {
		if !errors.Is(err, storage.ErrPageFull) {
			return err
		}
		// Record no longer fits on its page: relocate.
		if err := db.heap.Delete(meta.rid); err != nil {
			return err
		}
		rid, err := db.heap.Insert(data)
		if err != nil {
			return err
		}
		meta.rid = rid
	}
	meta.born = seq
	db.instances[oid] = meta
	key := classKey{old.Schema, old.Class}
	if tree, ok := db.spatial[key]; ok {
		if b, had := geometryBounds(old.Attrs, old.Values); had {
			tree.Delete(b, uint64(oid))
		}
		if b, has := geometryBounds(old.Attrs, values); has {
			tree.Insert(b, uint64(oid))
		}
	} else if b, has := geometryBounds(old.Attrs, values); has {
		tree := rtree.New()
		tree.Insert(b, uint64(oid))
		db.spatial[key] = tree
	}
	return nil
}

// applyDeleteLocked removes an instance, retaining its final state for open
// snapshots.
func (db *DB) applyDeleteLocked(seq uint64, oid catalog.OID) error {
	old, err := db.lookupLocked(oid)
	if err != nil {
		return err
	}
	meta := db.instances[oid]
	db.saveVersionLocked(old, meta.born, seq)
	if err := db.heap.Delete(meta.rid); err != nil {
		return err
	}
	delete(db.instances, oid)
	key := classKey{old.Schema, old.Class}
	oids := db.byClass[key]
	for i, o := range oids {
		if o == oid {
			db.byClass[key] = append(oids[:i], oids[i+1:]...)
			break
		}
	}
	if tree, ok := db.spatial[key]; ok {
		if b, had := geometryBounds(old.Attrs, old.Values); had {
			tree.Delete(b, uint64(oid))
		}
	}
	return nil
}

func geometryBounds(attrs []catalog.Field, values []catalog.Value) (geom.Rect, bool) {
	for i, a := range attrs {
		if a.Type.Kind == catalog.KindGeometry && !values[i].IsNull() && values[i].Geom != nil {
			return values[i].Geom.Bounds(), true
		}
	}
	return geom.EmptyRect, false
}
