package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/active"
	"repro/internal/builder"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/topo"
	"repro/internal/ui"
	"repro/internal/uikit"
	"repro/internal/workload"
)

// generatedDirectives is how many generated user directives sit beside
// Figure 6, so rule dispatch searches a realistic rule population.
const generatedDirectives = 256

// system is the program under test, assembled as cmd/gisd assembles it and
// serving the wire protocol on a loopback port.
type system struct {
	sys    *core.System
	srv    *server.Server
	addr   string
	served chan error
	lib    *uikit.Library // the client side's own library, as gisbrowse has
	path   string
	t      *tracer // nil for the untraced assembly
}

// create builds a fresh file-backed database with the WAL on, generates the
// network, installs the rules and starts serving: the benchmark's set-up.
func create(dir string, opts workload.PhoneNetOptions) (*system, *workload.PhoneNet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "geo.db")
	lib, err := workload.StandardLibrary()
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.Open(core.Config{Name: "GEO", Path: path, Library: lib})
	if err != nil {
		return nil, nil, err
	}
	pn, err := workload.BuildPhoneNet(sys.DB, opts)
	if err != nil {
		_ = sys.Close()
		return nil, nil, err
	}
	s, err := serve(sys, sys.NewServer(), path, nil)
	if err != nil {
		return nil, nil, err
	}
	return s, pn, nil
}

// reopenTraced opens the database files again through the constructors
// core.Open uses, with the tracer's timers around the pager, the log, the
// active mechanism's bus subscription and the server's backend.
func reopenTraced(path string, t *tracer) (*system, error) {
	lib, err := workload.StandardLibrary()
	if err != nil {
		return nil, err
	}
	fp, err := storage.OpenFilePager(path)
	if err != nil {
		return nil, err
	}
	lf, err := storage.OpenLogFile(path + ".wal")
	if err != nil {
		_ = fp.Close()
		return nil, err
	}
	db, err := geodb.Open(geodb.Options{Name: "GEO", Pager: timedPager{fp, t}, WALFile: timedLog{lf, t}})
	if err != nil {
		_ = fp.Close()
		_ = lf.Close()
		return nil, err
	}
	if err := workload.RegisterPoleMethods(db); err != nil {
		_ = db.Close()
		return nil, err
	}
	engine := active.NewEngine()
	db.Bus().Subscribe(timedHandler{engine, t})
	backend := &ui.DirectBackend{DB: db, Engine: engine}
	sys := &core.System{
		DB: db, Engine: engine, Library: lib,
		Builder: builder.New(lib, db),
		Backend: backend,
		Guard:   topo.NewGuard(db),
		Tracer:  obs.NewTracer(),
	}
	// The fields core.System.NewServer sets, over the timed backend.
	srv := server.New(&tracedBackend{inner: backend, t: t, layer: layerServer})
	srv.Checkpoint = db.Checkpoint
	srv.Tracer = sys.Tracer
	return serve(sys, srv, path, t)
}

// serve installs gisd's default rules on sys and serves srv on loopback.
func serve(sys *core.System, srv *server.Server, path string, t *tracer) (*system, error) {
	if err := installRules(sys); err != nil {
		_ = sys.Close()
		return nil, err
	}
	clientLib, err := workload.StandardLibrary()
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	s := &system{sys: sys, srv: srv, addr: l.Addr().String(), served: make(chan error, 1),
		lib: clientLib, path: path, t: t}
	go func() { s.served <- srv.Serve(l) }()
	return s, nil
}

// installRules installs what gisd installs by default (Figure 6 and the
// topological constraints) plus the generated directives.
func installRules(sys *core.System) error {
	var src strings.Builder
	src.WriteString(workload.Figure6Source)
	for i, ctx := range workload.Contexts(generatedDirectives) {
		src.WriteString("\n")
		src.WriteString(workload.DirectiveFor(ctx, i))
	}
	if _, err := sys.InstallDirectives(src.String()); err != nil {
		return fmt.Errorf("install directives: %w", err)
	}
	for _, c := range []topo.Constraint{
		{Name: "pole-in-zone", Schema: workload.SchemaName, Class: "Pole",
			With: "Zone", Relation: geom.Inside, Mode: topo.Require},
		{Name: "zones-disjoint", Schema: workload.SchemaName, Class: "Zone",
			With: "Zone", Relation: geom.Overlap, Mode: topo.Forbid},
	} {
		if err := sys.AddConstraint(c); err != nil {
			return fmt.Errorf("install constraint %s: %w", c.Name, err)
		}
	}
	return nil
}

// close drains the server (which ends with a checkpoint), waits for its
// accept loop to return and closes the database. The accept loop's error is
// not the close's: a loop that had not started yet reports the server closed,
// and an accept failure during the run already failed the sessions' dials.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.served
	if cerr := s.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// dialOptions returns the client transport: plain for the untraced run, a
// byte- and round-trip-counting connection for the traced one.
func (s *system) dialOptions() client.Options {
	if s.t == nil {
		return client.Options{}
	}
	return client.Options{Dial: func() (net.Conn, error) {
		c, err := net.Dial("tcp", s.addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, t: s.t}, nil
	}}
}

// open attaches one user session, over TCP (weak integration, as gisbrowse
// -connect does) or in-process (strong integration). Traced sessions hang
// their backend spans under *parent.
func (s *system) open(ctx event.Context, tcp bool, parent *obs.SpanContext) (*ui.Session, func(), error) {
	switch {
	case tcp && s.t == nil:
		sess, cli, err := core.RemoteSessionOptions(s.addr, s.lib, ctx, client.Options{})
		if err != nil {
			return nil, nil, err
		}
		return sess, func() { _ = cli.Close() }, nil
	case tcp:
		cli, err := client.DialOptions(s.addr, s.dialOptions())
		if err != nil {
			return nil, nil, err
		}
		tb := &tracedBackend{inner: cli, t: s.t, layer: layerWire, parent: parent}
		sess := ui.NewSession(tb, builder.New(s.lib, tb), ctx)
		sess.SetTracer(cli.Tracer())
		return sess, func() { _ = cli.Close() }, nil
	case s.t == nil:
		return s.sys.NewSession(ctx), func() {}, nil
	default:
		tb := &tracedBackend{inner: s.sys.Backend, t: s.t, layer: layerServer, parent: parent}
		sess := ui.NewSession(tb, s.sys.Builder, ctx)
		sess.SetTracer(s.sys.Tracer)
		return sess, func() {}, nil
	}
}

// committer dials the editor's connection; it commits through the txn verb.
func (s *system) committer(parent *obs.SpanContext) (ui.TxnMutator, func(), error) {
	cli, err := client.DialOptions(s.addr, s.dialOptions())
	if err != nil {
		return nil, nil, err
	}
	closeFn := func() { _ = cli.Close() }
	if s.t == nil {
		return cli, closeFn, nil
	}
	return &tracedBackend{inner: cli, t: s.t, layer: layerWire, parent: parent}, closeFn, nil
}
