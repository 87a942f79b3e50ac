package ui

// Atomic mutation batches: the UI-layer binding of geodb's transactions
// (DESIGN.md §15). A TxnMutator commits a whole batch of mutations as one
// transaction — one WAL group, one shared group-commit fsync — so a session
// makes a set of related edits durable together, and the scenario layer
// commits a hypothesis whole. It is an optional backend capability: the
// strong-integration DirectBackend implements it in-process, the
// weak-integration client over the txn protocol verb, and a backend that
// lacks it simply does not satisfy the interface.

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/event"
)

// ErrNoTxn rejects transactional commits, scenario commits among them, on
// backends without the capability.
var ErrNoTxn = errors.New("ui: backend cannot commit transactions")

// TxnOpKind selects what a TxnOp does.
type TxnOpKind uint8

// Transaction op kinds.
const (
	TxnInsert TxnOpKind = iota
	TxnUpdate
	TxnDelete
)

func (k TxnOpKind) String() string {
	switch k {
	case TxnInsert:
		return "insert"
	case TxnUpdate:
		return "update"
	case TxnDelete:
		return "delete"
	}
	return fmt.Sprintf("TxnOpKind(%d)", uint8(k))
}

// TxnOp is one mutation in an atomic batch. Kind selects which fields are
// meaningful: TxnInsert uses Schema/Class/Values, TxnUpdate uses
// OID/Values, TxnDelete uses OID.
type TxnOp struct {
	Kind   TxnOpKind
	Schema string
	Class  string
	OID    catalog.OID
	Values []catalog.Value
}

// TxnMutator is the optional backend capability for atomic batches. The ops
// commit in order, all-or-nothing: on success every op is durable under one
// group commit; on error none is (an unterminated WAL group never replays).
// The returned slice has one entry per op — the allocated OID for inserts,
// zero otherwise.
type TxnMutator interface {
	CommitTxn(ctx event.Context, ops []TxnOp) ([]catalog.OID, error)
}

// CommitTxn implements TxnMutator in-process: buffer every op on one geodb
// transaction and commit it. Constraint rules guard each op at buffer time,
// against the batch's earlier ops (a veto fails the whole batch — unlike
// Txn's per-op veto semantics, a batch caller has no way to react to a
// partial acceptance).
func (b *DirectBackend) CommitTxn(ctx event.Context, ops []TxnOp) ([]catalog.OID, error) {
	t := b.DB.Begin(ctx)
	defer t.Abort() // no-op after a successful Commit
	oids := make([]catalog.OID, len(ops))
	for i, op := range ops {
		var err error
		switch op.Kind {
		case TxnInsert:
			oids[i], err = t.Insert(op.Schema, op.Class, op.Values)
		case TxnUpdate:
			err = t.Update(op.OID, op.Values)
		case TxnDelete:
			err = t.Delete(op.OID)
		default:
			err = fmt.Errorf("ui: unknown txn op kind %s", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("ui: txn op %d (%s): %w", i, op.Kind, err)
		}
	}
	if err := t.Commit(); err != nil {
		return nil, err
	}
	return oids, nil
}
