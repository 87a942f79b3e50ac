// Package core assembles the paper's complete architecture (Figure 1) into
// one system: the geographic DBMS, the active mechanism subscribed to its
// event bus, the interface objects library, the generic interface builder,
// the customization-language toolchain, the topological-constraint guard,
// and session/serving entry points for both strong and weak integration.
//
// This is the package a downstream application uses; everything underneath
// is reachable through it but rarely needed directly.
package core

import (
	"fmt"
	"net"

	"repro/internal/active"
	"repro/internal/builder"
	"repro/internal/client"
	"repro/internal/custlang"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/topo"
	"repro/internal/ui"
	"repro/internal/uikit"
)

// Config sizes and locates a System.
type Config struct {
	// Name is the database name (default "GEO").
	Name string
	// Path stores pages in a file when non-empty; otherwise in memory.
	Path string
	// PoolSize is the buffer pool capacity in pages (default 256).
	PoolSize int
	// Policy is the buffer replacement policy (default LRU).
	Policy storage.ReplacementPolicy
	// Library seeds the interface objects library; nil means the kernel
	// classes of Figure 2.
	Library *uikit.Library

	// DisableWAL turns off the write-ahead log for a file-backed database
	// (durability then depends on a clean Close, the pre-WAL behavior).
	DisableWAL bool
	// CheckpointEvery bounds WAL replay: checkpoint after this many
	// commits. 0 = default (1024), negative = no automatic checkpoints.
	CheckpointEvery int
}

// System is the assembled architecture of Figure 1.
type System struct {
	// DB is the geographic database.
	DB *geodb.DB
	// Engine is the active mechanism, already subscribed to DB's bus.
	Engine *active.Engine
	// Library is the interface objects library.
	Library *uikit.Library
	// Builder is the generic interface builder.
	Builder *builder.Builder
	// Backend is the strong-integration backend sessions attach to.
	Backend *ui.DirectBackend
	// Guard owns topological constraints.
	Guard *topo.Guard

	// Tracer roots interaction spans for sessions created by NewSession and
	// request spans for servers from NewServer. Disabled (all span
	// operations free no-ops) until EnableTracing attaches the sampler.
	Tracer *obs.Tracer
	// Traces is the tail sampler EnableTracing installed, or nil.
	Traces *obs.TailSampler
}

// Open assembles a system.
func Open(cfg Config) (*System, error) {
	db, err := geodb.Open(geodb.Options{
		Name:            cfg.Name,
		Path:            cfg.Path,
		PoolSize:        cfg.PoolSize,
		Policy:          cfg.Policy,
		DisableWAL:      cfg.DisableWAL,
		CheckpointEvery: cfg.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	lib := cfg.Library
	if lib == nil {
		lib = uikit.Kernel()
	}
	engine := active.NewEngine()
	backend := ui.NewDirectBackend(db, engine)
	return &System{
		DB:      db,
		Engine:  engine,
		Library: lib,
		Builder: builder.New(lib, db),
		Backend: backend,
		Guard:   topo.NewGuard(db),
		Tracer:  obs.NewTracer(),
	}, nil
}

// EnableTracing builds a tail sampler from opts and attaches it to every
// tracer in the system — the session/server tracer, the rule engine's and
// the database's — so one interaction's spans land in one trace tree. It
// returns the sampler (also stored as s.Traces) for the trace verb, HTTP
// export and tests. Calling it again replaces the sampler.
func (s *System) EnableTracing(opts obs.TailSamplerOptions) *obs.TailSampler {
	ts := obs.NewTailSampler(opts)
	s.Traces = ts
	s.Tracer.AttachSink(ts)
	s.Engine.Tracer().AttachSink(ts)
	s.DB.Tracer().AttachSink(ts)
	return ts
}

// MustOpen is Open for known-good configurations.
func MustOpen(cfg Config) *System {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Close flushes and closes the database.
func (s *System) Close() error { return s.DB.Close() }

// Analyzer returns a customization-language analyzer bound to this system's
// catalog and library.
func (s *System) Analyzer() *custlang.Analyzer {
	return &custlang.Analyzer{Cat: s.DB.Catalog(), Lib: s.Library}
}

// InstallDirectives compiles customization-language source and installs the
// generated rules on the engine.
func (s *System) InstallDirectives(src string) ([]custlang.Compiled, error) {
	return s.Analyzer().Install(s.Engine, src)
}

// InstallDirectivesStrict is InstallDirectives with the static rule-set
// analysis gating the install: the source is rejected (wrapping
// custlang.ErrRuleSet) and rolled back if the installed rule set would
// contain an ambiguity, a dead rule conflict, or a triggering cycle of
// error severity. file names the source in diagnostics.
func (s *System) InstallDirectivesStrict(file, src string) ([]custlang.Compiled, error) {
	a := s.Analyzer()
	a.Strict = true
	return a.InstallFile(s.Engine, file, src)
}

// SaveDirectives validates and persists a named directive source in the
// database.
func (s *System) SaveDirectives(name, src string) error {
	return s.Analyzer().SaveDirectives(s.DB, name, src)
}

// RestoreDirectives compiles every directive stored in the database onto
// the engine, returning the number of rules installed.
func (s *System) RestoreDirectives() (int, error) {
	return s.Analyzer().InstallStored(s.DB, s.Engine)
}

// SaveLibrary persists the interface objects library into the database.
func (s *System) SaveLibrary() error { return s.Library.SaveToDB(s.DB) }

// LoadLibrary replaces the in-memory library with the one stored in the
// database. The builder keeps using the same Library pointer contents via
// replacement of prototypes, so a fresh builder is returned.
func (s *System) LoadLibrary() error {
	lib, err := uikit.LoadFromDB(s.DB)
	if err != nil {
		return err
	}
	s.Library = lib
	s.Builder = builder.New(lib, s.DB)
	return nil
}

// AddConstraint installs a topological constraint as active rules.
func (s *System) AddConstraint(c topo.Constraint) error {
	return s.Guard.Install(s.Engine, c)
}

// Certify audits existing data against a constraint.
func (s *System) Certify(c topo.Constraint) ([]topo.Violation, error) {
	return s.Guard.Certify(c)
}

// Begin starts an explicit transaction: mutations buffered on it commit
// atomically under one WAL group and one shared group-commit fsync
// (DESIGN.md §15). Readers never see a transaction's ops until Commit.
func (s *System) Begin(ctx event.Context) *geodb.Txn {
	return s.DB.Begin(ctx)
}

// NewSession opens a strong-integration UI session for the context.
func (s *System) NewSession(ctx event.Context) *ui.Session {
	sess := ui.NewSession(s.Backend, s.Builder, ctx)
	sess.SetTracer(s.Tracer)
	return sess
}

// NewServer returns a weak-integration protocol server over this system.
// A graceful Shutdown ends with a database checkpoint, so a restarted
// daemon replays no WAL.
func (s *System) NewServer() *server.Server {
	srv := server.New(s.Backend)
	srv.Checkpoint = s.DB.Checkpoint
	srv.Tracer = s.Tracer
	srv.TraceStore = s.Traces
	return srv
}

// ListenAndServe serves the weak-integration protocol on a TCP address
// (blocking).
func (s *System) ListenAndServe(addr string) error {
	return s.NewServer().ListenAndServe(addr)
}

// ClientOptions configures the weak-integration client transport: per-request
// timeout, retry/backoff policy, and reconnect dialing.
type ClientOptions = client.Options

// RetryPolicy bounds retries of idempotent retrieval verbs.
type RetryPolicy = client.RetryPolicy

// RemoteSession dials a weak-integration server and returns a UI session
// over it. The library is the client-side interface objects library (weak
// integration keeps the UI adaptable to more than one backend, so it owns
// its widgets). Close the returned client when done.
func RemoteSession(addr string, lib *uikit.Library, ctx event.Context) (*ui.Session, *client.Client, error) {
	return RemoteSessionOptions(addr, lib, ctx, client.Options{})
}

// RemoteSessionOptions is RemoteSession with a fault-tolerant transport:
// opts selects per-request timeouts, retry with backoff, and automatic
// reconnect, so the session survives server restarts and flaky links.
func RemoteSessionOptions(addr string, lib *uikit.Library, ctx event.Context, opts client.Options) (*ui.Session, *client.Client, error) {
	cli, err := client.DialOptions(addr, opts)
	if err != nil {
		return nil, nil, err
	}
	bld := builder.New(lib, cli)
	sess := ui.NewSession(cli, bld, ctx)
	// The session's interaction spans and the client's transport spans share
	// the client's tracer: attach one sink (e.g. an obs.TailSampler) to
	// cli.Tracer() and the whole client-side half of each trace is captured.
	sess.SetTracer(cli.Tracer())
	return sess, cli, nil
}

// PipeSession attaches a weak-integration session to this system over an
// in-process pipe — the protocol without the network, used by the B8
// experiment's middle configuration.
func (s *System) PipeSession(lib *uikit.Library, ctx event.Context) (*ui.Session, func(), error) {
	srvConn, cliConn := net.Pipe()
	srv := s.NewServer()
	go srv.ServeConn(srvConn)
	cli := client.NewClient(cliConn)
	bld := builder.New(lib, cli)
	cleanup := func() {
		_ = cli.Close()
		_ = srv.Close()
	}
	sess := ui.NewSession(cli, bld, ctx)
	sess.SetTracer(cli.Tracer())
	return sess, cleanup, nil
}

// Describe renders a one-line system summary.
func (s *System) Describe() string {
	st := s.DB.Stats()
	return fmt.Sprintf("%s: %d schemas, %d instances, %d pages, %d rules, %d library objects",
		s.DB.Name(), st.Schemas, st.Instances, st.Pages, s.Engine.RuleCount(), s.Library.Len())
}

// Convenience re-exports so applications rarely need deep imports.

// Context builds an interaction context.
func Context(user, category, application string) event.Context {
	return event.Context{User: user, Category: category, Application: application}
}
