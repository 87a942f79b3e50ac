package geodb

// Snapshot reads. A snapshot pins the database's logical state at a commit
// sequence: reads through it see exactly the groups committed before it
// began, no matter how many writers commit while it is open. The mechanism
// is an undo version store — writers are only taxed while snapshots are
// open: an update or delete then retains the pre-state Instance, tagged
// with the sequence interval [born, superseded) during which it was
// current. A snapshot at seq S resolves an OID to the first retained
// version whose interval covers S, falling back to the current record when
// the record's last write is at or before S.
//
// Long scans therefore do not block writers: Snapshot.Select collects its
// candidates under one brief read lock, then materializes record by record,
// re-taking the read lock per record. Writers interleave freely between
// records; the version store keeps what the scan observes consistent.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/geom"
)

// undoVersion is one retained pre-state: in was the current state of its
// OID for commit sequences in [born, superseded).
type undoVersion struct {
	born       uint64
	superseded uint64
	in         Instance
}

// Snapshot is a consistent read view at a fixed commit sequence. Close it
// when done — open snapshots make writers retain pre-states. Safe for
// concurrent use; reads never block writers for longer than one record's
// materialization.
type Snapshot struct {
	db     *DB
	seq    uint64
	closed bool
}

// BeginSnapshot pins the current committed state for reading.
func (db *DB) BeginSnapshot() *Snapshot {
	db.mu.RLock()
	seq := db.commitSeq
	db.snapMu.Lock()
	db.snaps[seq]++
	db.snapMu.Unlock()
	db.mu.RUnlock()
	return &Snapshot{db: db, seq: seq}
}

// Seq reports the commit sequence the snapshot reads at.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Close releases the snapshot and garbage-collects retained versions no
// open snapshot needs. Idempotent.
func (s *Snapshot) Close() {
	if s.closed {
		return
	}
	s.closed = true
	db := s.db
	db.mu.Lock()
	defer db.mu.Unlock()
	db.snapMu.Lock()
	db.snaps[s.seq]--
	if db.snaps[s.seq] <= 0 {
		delete(db.snaps, s.seq)
	}
	active := make([]uint64, 0, len(db.snaps))
	for q := range db.snaps {
		active = append(active, q)
	}
	db.snapMu.Unlock()
	db.gcUndoLocked(active)
}

// snapshotsActiveLocked reports whether any snapshot is open; writers call
// it (holding db.mu) to decide whether a pre-state must be retained.
func (db *DB) snapshotsActiveLocked() bool {
	db.snapMu.Lock()
	n := len(db.snaps)
	db.snapMu.Unlock()
	return n > 0
}

// saveVersionLocked retains the pre-state of an instance about to be
// updated or deleted at sequence seq, if any open snapshot might need it.
// born is the sequence the pre-state became current at.
func (db *DB) saveVersionLocked(old Instance, born, seq uint64) {
	if !db.snapshotsActiveLocked() {
		return
	}
	db.undo[old.OID] = append(db.undo[old.OID], undoVersion{born: born, superseded: seq, in: old})
}

// gcUndoLocked drops every retained version no sequence in active needs.
func (db *DB) gcUndoLocked(active []uint64) {
	if len(active) == 0 {
		if len(db.undo) > 0 {
			db.undo = make(map[catalog.OID][]undoVersion)
		}
		return
	}
	for oid, vers := range db.undo {
		kept := vers[:0]
		for _, v := range vers {
			if versionNeeded(v, active) {
				kept = append(kept, v)
			}
		}
		if len(kept) == 0 {
			delete(db.undo, oid)
		} else {
			db.undo[oid] = kept
		}
	}
}

func versionNeeded(v undoVersion, active []uint64) bool {
	for _, s := range active {
		if v.born <= s && s < v.superseded {
			return true
		}
	}
	return false
}

// Get materializes the instance as of the snapshot. ErrNoInstance means the
// OID did not exist (yet, or anymore) at the snapshot's sequence.
func (s *Snapshot) Get(oid catalog.OID) (Instance, error) {
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	return s.getLocked(oid)
}

func (s *Snapshot) getLocked(oid catalog.OID) (Instance, error) {
	v, err := s.versionLocked(oid)
	if err != nil {
		return Instance{}, err
	}
	if v != nil {
		return cloneInstance(*v), nil
	}
	return s.db.lookupLocked(oid)
}

// versionLocked resolves oid at the snapshot's sequence: the retained
// version it would have read, or nil when the current record is that state.
// ErrNoInstance means the OID did not exist at the sequence. Callers hold
// db.mu.
func (s *Snapshot) versionLocked(oid catalog.OID) (*Instance, error) {
	db := s.db
	// Versions are appended in superseded order: the first one still alive
	// past our sequence is the state we would have read.
	vers := db.undo[oid]
	for i := range vers {
		if vers[i].superseded > s.seq {
			if vers[i].born <= s.seq {
				return &vers[i].in, nil
			}
			// The oid's whole retained history starts after us: it did not
			// exist at our sequence.
			return nil, fmt.Errorf("%w: oid %d", ErrNoInstance, oid)
		}
	}
	meta, ok := db.instances[oid]
	if !ok || meta.born > s.seq {
		return nil, fmt.Errorf("%w: oid %d", ErrNoInstance, oid)
	}
	return nil, nil
}

// shape reads oid's geometry as of the snapshot, nil when it has none or is
// not an instance of schema.class.
func (s *Snapshot) shape(oid catalog.OID, schema, class string) (geom.Geometry, error) {
	db := s.db
	db.mu.RLock()
	defer db.mu.RUnlock()
	v, err := s.versionLocked(oid)
	if err != nil {
		return nil, err
	}
	if v != nil {
		if v.Schema != schema || v.Class != class {
			return nil, nil
		}
		g, _ := v.Geometry()
		return g, nil
	}
	if meta := db.instances[oid]; meta.schema != schema || meta.class != class {
		return nil, nil
	}
	return db.shapeLocked(oid)
}

// cloneInstance detaches a retained version from the store so callers may
// hold or mutate the result freely.
func cloneInstance(in Instance) Instance {
	out := in
	out.Attrs = append([]catalog.Field(nil), in.Attrs...)
	out.Values = append([]catalog.Value(nil), in.Values...)
	return out
}

// Select materializes every instance of the class visible at the snapshot
// and satisfying pred, in OID order. The read lock is taken per record, not
// for the scan: writers commit freely mid-scan and the result is still the
// single consistent state the snapshot pinned.
func (s *Snapshot) Select(schema, class string, pred Predicate) ([]Instance, error) {
	oids := s.extension(schema, class)
	out := make([]Instance, 0, len(oids))
	for _, oid := range oids {
		in, err := s.Get(oid)
		if err != nil {
			if errors.Is(err, ErrNoInstance) {
				continue // not visible at this sequence
			}
			return nil, err
		}
		if in.Schema != schema || in.Class != class {
			continue
		}
		if pred == nil || pred(in) {
			out = append(out, in)
		}
	}
	return out, nil
}

// shapes is Shapes at the snapshot's sequence.
func (s *Snapshot) shapes(schema, class string) ([]Shape, error) {
	oids := s.extension(schema, class)
	out := make([]Shape, 0, len(oids))
	for _, oid := range oids {
		g, err := s.shape(oid, schema, class)
		if errors.Is(err, ErrNoInstance) {
			continue // not visible at this sequence
		}
		if err != nil {
			return nil, err
		}
		if g != nil {
			out = append(out, Shape{OID: oid, Geom: g})
		}
	}
	return out, nil
}

// extension lists, in OID order, the OIDs that may belong to the class at
// the snapshot: its current extension plus the OIDs whose retained versions
// are of the class. Reads resolve each against the snapshot's sequence.
func (s *Snapshot) extension(schema, class string) []catalog.OID {
	db := s.db
	key := classKey{schema, class}
	db.mu.RLock()
	seen := make(map[catalog.OID]bool, len(db.byClass[key]))
	oids := make([]catalog.OID, 0, len(db.byClass[key]))
	for _, oid := range db.byClass[key] {
		oids = append(oids, oid)
		seen[oid] = true
	}
	// Instances deleted (or re-homed by relocation) since the snapshot began
	// are no longer in the extension but live on in the version store.
	for oid, vers := range db.undo {
		if seen[oid] {
			continue
		}
		for _, v := range vers {
			if v.in.Schema == schema && v.in.Class == class {
				oids = append(oids, oid)
				seen[oid] = true
				break
			}
		}
	}
	db.mu.RUnlock()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids
}

// Count reports the class extension size visible at the snapshot.
func (s *Snapshot) Count(schema, class string) (int, error) {
	out, err := s.Select(schema, class, nil)
	if err != nil {
		return 0, err
	}
	return len(out), nil
}
