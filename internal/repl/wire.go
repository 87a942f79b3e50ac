// Package repl is log-shipping replication over the PR-5 write-ahead log:
// a Primary streams LSN-ordered page-image records to N Replicas, each of
// which continuously applies them into its own page store and serves the
// idempotent retrieval verbs from a read-only follower database.
//
// The protocol guarantees *prefix consistency*: the primary only ever ships
// records at or below its durable LSN, and a replica only exposes state at
// durable commit boundaries — so every state a replica ever serves is some
// prefix of the primary's acknowledged history, never a fork and never a
// torn mid-mutation view. Catch-up for cold or lagging replicas is a
// checkpoint-based page snapshot (the primary's log truncates at
// checkpoints, so shipping from an arbitrary LSN is not always possible).
//
// Faults are first-class: replicas verify per-record CRCs and strict LSN
// contiguity (a gap or torn record drops the conn and reconnects), bound
// every read with an idle deadline (a hung primary cannot wedge apply), and
// pull themselves out of the read rotation when their lag exceeds a bound.
//
// No command wires the package: gisd serves one database, as the paper's
// architecture does. It is a tested library awaiting removal (ROADMAP.md
// item 6, DESIGN.md §13).
package repl

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Ship-stream message kinds. One TCP (or pipe) conn per replica carries a
// replica→primary handshake, then a primary→replica stream of snapshot
// chunks and record batches, with acks flowing back.
const (
	kindHello   = "hello"    // replica → primary: resume point + lineage
	kindHelloOK = "hello_ok" // primary → replica: lineage id + durable LSN
	kindSnap    = "snap"     // primary → replica: a chunk of snapshot pages
	kindSnapEnd = "snap_end" // primary → replica: snapshot consistent @ LSN
	kindRecords = "records"  // primary → replica: contiguous record batch
	kindPing    = "ping"     // primary → replica: durable LSN heartbeat
	kindAck     = "ack"      // replica → primary: applied LSN
)

// msg is the single ship-stream frame shape, JSON-encoded inside the
// protocol's length-prefixed framing (proto.WriteMessage). Which fields are
// meaningful depends on Kind.
type msg struct {
	Kind string `json:"kind"`
	// From is the replica's resume point (hello): the last record LSN it
	// holds. The primary streams records strictly after it, or falls back
	// to a snapshot when that history is gone.
	From uint64 `json:"from,omitempty"`
	// RunID identifies the primary's log lineage. A replica echoes the
	// lineage it applied from; a mismatch (new primary, wiped database)
	// forces a snapshot instead of mixing records from two histories.
	RunID uint64 `json:"run_id,omitempty"`
	// Applied acknowledges the replica's apply progress (ack).
	Applied uint64 `json:"applied,omitempty"`
	// Durable is the primary's durable LSN at send time; it rides every
	// primary→replica frame so the replica can measure its own lag. For a
	// records frame it is also the consistency bound: once the replica has
	// applied through Durable it may expose that state to readers.
	Durable uint64 `json:"durable,omitempty"`
	// LSN is the snapshot consistency point (snap_end).
	LSN   uint64       `json:"lsn,omitempty"`
	Pages []wirePage   `json:"pages,omitempty"`
	Recs  []wireRecord `json:"recs,omitempty"`
	// Trace carries the primary's ship-span context so the replica's apply
	// span joins the same trace (obs: spans across ship→apply).
	Trace *obs.SpanContext `json:"trace,omitempty"`
}

// wirePage is one snapshot page. CRC guards the payload end-to-end: JSON's
// base64 decoding can silently accept a corrupted byte, so the framing CRC
// of the WAL is re-established here.
type wirePage struct {
	ID   uint32 `json:"id"`
	Data []byte `json:"data"`
	CRC  uint32 `json:"crc"`
}

// wireRecord is one shipped WAL record (page image, checkpoint marker, or
// group-commit marker). Markers carry no payload but keep their place in the
// stream: LSN contiguity is how replicas detect gaps, so skipping them at
// the source would look like loss.
type wireRecord struct {
	LSN        uint64 `json:"lsn"`
	Checkpoint bool   `json:"ckpt,omitempty"`
	Commit     bool   `json:"commit,omitempty"`
	Page       uint32 `json:"page,omitempty"`
	Data       []byte `json:"data,omitempty"`
	CRC        uint32 `json:"crc"`
}

var shipCRCTable = crc32.MakeTable(crc32.Castagnoli)

// shipCRC sums an 8-byte id (LSN or page id) plus the payload, binding the
// bytes to their position in the stream.
func shipCRC(id uint64, data []byte) uint32 {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], id)
	return crc32.Update(crc32.Checksum(hdr[:], shipCRCTable), shipCRCTable, data)
}

func toWireRecord(r storage.Record) wireRecord {
	return wireRecord{
		LSN:        uint64(r.LSN),
		Checkpoint: r.Checkpoint,
		Commit:     r.Commit,
		Page:       uint32(r.Page),
		Data:       r.Data,
		CRC:        shipCRC(uint64(r.LSN), r.Data),
	}
}

// verify checks the record's CRC against its payload.
func (r wireRecord) verify() bool {
	return shipCRC(r.LSN, r.Data) == r.CRC
}

// verify checks the page's CRC against its payload.
func (p wirePage) verify() bool {
	return shipCRC(uint64(p.ID), p.Data) == p.CRC
}

// Replication traffic mirrored into the process-wide metrics registry.
var (
	mShippedRecords  = obs.Default().Counter("gis_repl_shipped_records_total")
	mShippedSnaps    = obs.Default().Counter("gis_repl_snapshots_total")
	mShipGaps        = obs.Default().Counter("gis_repl_ship_gaps_total")
	mAppliedRecords  = obs.Default().Counter("gis_repl_applied_records_total")
	mApplyErrors     = obs.Default().Counter("gis_repl_apply_errors_total")
	mReconnects      = obs.Default().Counter("gis_repl_reconnects_total")
	mReplicaLag      = obs.Default().Gauge("gis_repl_lag_records")
	mReplicaHealthy  = obs.Default().Gauge("gis_repl_healthy")
	mAttachedGauge   = obs.Default().Gauge("gis_repl_attached_replicas")
	mUnavailableRead = obs.Default().Counter("gis_repl_unavailable_reads_total")
)
