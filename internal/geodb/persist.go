package geodb

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// This file makes a database file self-contained: every stored record
// carries an envelope identifying what it is, and the catalog persists as a
// reserved record, so Open on an existing page file recovers the catalog,
// the OID directory and the spatial indexes by a single scan. Method
// implementations are Go functions and cannot persist; applications
// re-register them after reopening (RegisterMethod), as with any external
// code the paper's model keeps outside the database.

// Envelope tags.
const (
	recTagObject  = 1
	recTagCatalog = 2
)

// objectEnvelope counts the values an object record holds before its
// attribute values: the tag, the OID, the schema and the class.
const objectEnvelope = 4

// ErrCorrupt wraps recovery failures.
var ErrCorrupt = errors.New("geodb: corrupt database file")

// encodeObjectRecord wraps instance values with their identity. A record no
// page can hold is refused here, when a transaction buffers it, rather than
// by the heap halfway through applying a batch.
func encodeObjectRecord(oid catalog.OID, schema, class string, values []catalog.Value) ([]byte, error) {
	envelope := make([]catalog.Value, 0, 4+len(values))
	envelope = append(envelope,
		catalog.IntVal(recTagObject),
		catalog.IntVal(int64(oid)),
		catalog.TextVal(schema),
		catalog.TextVal(class),
	)
	envelope = append(envelope, values...)
	data, err := catalog.EncodeRecord(envelope)
	if err == nil && len(data) > storage.MaxRecordSize {
		err = fmt.Errorf("%w: %s.%s oid %d is %d bytes", storage.ErrRecordTooLarge, schema, class, oid, len(data))
	}
	return data, err
}

// decodeEnvelope splits a stored record into its envelope and payload.
func decodeEnvelope(data []byte) (tag int64, oid catalog.OID, schema, class string, values []catalog.Value, err error) {
	all, err := catalog.DecodeRecord(data)
	if err != nil {
		return 0, 0, "", "", nil, err
	}
	if len(all) < 1 || all[0].Kind != catalog.KindInteger {
		return 0, 0, "", "", nil, fmt.Errorf("%w: record without envelope tag", ErrCorrupt)
	}
	switch all[0].Int {
	case recTagObject:
		if len(all) < objectEnvelope {
			return 0, 0, "", "", nil, fmt.Errorf("%w: short object envelope", ErrCorrupt)
		}
		return recTagObject, catalog.OID(all[1].Int), all[2].Text, all[3].Text, all[objectEnvelope:], nil
	case recTagCatalog:
		if len(all) < 2 || all[1].Kind != catalog.KindBitmap {
			return 0, 0, "", "", nil, fmt.Errorf("%w: bad catalog envelope", ErrCorrupt)
		}
		return recTagCatalog, 0, "", "", all[1:], nil
	default:
		return 0, 0, "", "", nil, fmt.Errorf("%w: unknown envelope tag %d", ErrCorrupt, all[0].Int)
	}
}

// persistCatalog rewrites the reserved catalog record and commits it to the
// WAL. Callers hold no lock; it takes the write lock itself.
func (db *DB) persistCatalog() error {
	if db.readOnly {
		return ErrReadOnly
	}
	end, err := db.persistCatalogRecord()
	if err != nil {
		return err
	}
	return db.commitDurable(nil, end)
}

func (db *DB) persistCatalogRecord() (storage.LSN, error) {
	doc, err := catalog.MarshalSnapshot(db.cat.Snapshot())
	if err != nil {
		return 0, err
	}
	data, err := catalog.EncodeRecord([]catalog.Value{
		catalog.IntVal(recTagCatalog),
		catalog.BitmapVal(doc),
	})
	if err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeCatalogRecordLocked(data); err != nil {
		// The group stays unlogged: nothing reaches the log, so a
		// half-written catalog record cannot surface after a restart.
		return 0, err
	}
	return db.closeGroupLocked(db.commitSeq + 1)
}

func (db *DB) writeCatalogRecordLocked(data []byte) error {
	if db.catalogRID != nil {
		if err := db.heap.Update(*db.catalogRID, data); err == nil {
			return nil
		} else if !errors.Is(err, storage.ErrPageFull) {
			return err
		}
		// Grown past its page: relocate.
		if err := db.heap.Delete(*db.catalogRID); err != nil {
			return err
		}
		db.catalogRID = nil
	}
	rid, err := db.heap.Insert(data)
	if err != nil {
		return err
	}
	db.catalogRID = &rid
	return nil
}

// recover rebuilds in-memory state from an existing page file: catalog
// snapshot, instance directory, class extensions (in OID order, matching the
// original insertion order) and spatial indexes.
func (db *DB) recover() error {
	type found struct {
		rid    storage.RID
		oid    catalog.OID
		schema string
		class  string
		values []catalog.Value
	}
	var objects []found
	var catalogDoc []byte
	var catalogRID storage.RID
	haveCatalog := false
	var scanErr error

	err := db.heap.Scan(func(rid storage.RID, data []byte) bool {
		tag, oid, schema, class, values, derr := decodeEnvelope(data)
		if derr != nil {
			scanErr = fmt.Errorf("record %s: %w", rid, derr)
			return false
		}
		switch tag {
		case recTagObject:
			objects = append(objects, found{rid: rid, oid: oid, schema: schema, class: class, values: values})
		case recTagCatalog:
			catalogDoc = values[0].Bitmap
			catalogRID = rid
			haveCatalog = true
		}
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	if !haveCatalog {
		if len(objects) > 0 {
			return fmt.Errorf("%w: %d objects but no catalog record", ErrCorrupt, len(objects))
		}
		return nil // empty file: fresh database
	}
	snap, err := catalog.UnmarshalSnapshot(catalogDoc)
	if err != nil {
		return err
	}
	if err := db.cat.Restore(snap); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.catalogRID = &catalogRID
	// Deterministic extension order: OIDs are assigned in insertion order.
	sort.Slice(objects, func(i, j int) bool { return objects[i].oid < objects[j].oid })
	for _, o := range objects {
		key := classKey{o.schema, o.class}
		db.instances[o.oid] = instanceMeta{rid: o.rid, schema: o.schema, class: o.class}
		db.byClass[key] = append(db.byClass[key], o.oid)
		if o.oid > db.nextOID {
			db.nextOID = o.oid
		}
		s, err := db.cat.Schema(o.schema)
		if err != nil {
			return fmt.Errorf("%w: object %d references unknown schema %q", ErrCorrupt, o.oid, o.schema)
		}
		attrs, err := s.EffectiveAttrs(o.class)
		if err != nil {
			return fmt.Errorf("%w: object %d: %v", ErrCorrupt, o.oid, err)
		}
		if len(attrs) != len(o.values) {
			return fmt.Errorf("%w: object %d has %d values for %d attributes",
				ErrCorrupt, o.oid, len(o.values), len(attrs))
		}
		if b, ok := geometryBounds(attrs, o.values); ok {
			tree, found := db.spatial[key]
			if !found {
				tree = rtree.New()
				db.spatial[key] = tree
			}
			tree.Insert(b, uint64(o.oid))
		}
	}
	return nil
}
