// WALBench is the file-backed insert workload behind the durability
// testing.B series in bench_test.go: WAL off, one synced writer, or many
// writers whose commits share fsyncs through group commit (DESIGN.md §15).
package experiments

import (
	"fmt"
	"path/filepath"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
)

// WALBench inserts fixed-shape rows into a file-backed database under one
// durability configuration.
type WALBench struct {
	DB  *geodb.DB
	ctx event.Context
	seq atomic.Int64
}

// NewWALBench opens a fresh file-backed database in dir, named after the
// variant. disable turns the WAL off entirely.
func NewWALBench(dir, name string, disable bool) (*WALBench, error) {
	path := filepath.Join(dir, fmt.Sprintf("walbench-%s.pages", name))
	db, err := geodb.Open(geodb.Options{
		Name:       "WALBENCH",
		Path:       path,
		DisableWAL: disable,
	})
	if err != nil {
		return nil, err
	}
	if err := db.DefineSchema("net"); err != nil {
		_ = db.Close()
		return nil, err
	}
	if err := db.DefineClass("net", catalog.Class{
		Name: "Station",
		Attrs: []catalog.Field{
			catalog.F("name", catalog.Scalar(catalog.KindText)),
			catalog.F("load", catalog.Scalar(catalog.KindInteger)),
		},
	}); err != nil {
		_ = db.Close()
		return nil, err
	}
	return &WALBench{DB: db, ctx: event.Context{User: "bench", Application: "walperf"}}, nil
}

// Step acknowledges one insert (the measured unit: mutate, log, fsync per
// the configuration). Safe for concurrent use — the grouped variant runs
// many Steps at once.
func (wb *WALBench) Step() error {
	i := wb.seq.Add(1)
	_, err := wb.DB.Insert(wb.ctx, "net", "Station", []catalog.Value{
		catalog.TextVal(fmt.Sprintf("s%08d", i)),
		catalog.IntVal(i),
	})
	return err
}

// Close checkpoints and closes the database.
func (wb *WALBench) Close() error { return wb.DB.Close() }
