// Command gisd is the weak-integration DBMS daemon of §3.5: it hosts a
// generated telephone-network database with the Figure 6 customization
// rules (and any extra directive files) and serves the wire protocol over
// TCP. Connect gisbrowse with -connect to drive it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	gisui "repro"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7497", "listen address")
		dbPath     = flag.String("db", "", "page file path (empty = in-memory; an existing file is recovered and NOT regenerated)")
		poles      = flag.Int("poles", 25, "poles per zone")
		zones      = flag.Int("zones", 2, "zones per side")
		seed       = flag.Int64("seed", 1997, "generator seed")
		directives = flag.String("directives", "figure6", "directive file to install ('figure6', 'none', or a path)")
		constrain  = flag.Bool("constraints", true, "install topological constraints (poles in zones, zones disjoint)")
		metrics    = flag.String("metrics", "", "HTTP listen address serving the metrics text exposition at /metrics (empty = disabled)")
		idle       = flag.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle longer than this (0 = never)")
		maxConns   = flag.Int("max-conns", 0, "maximum concurrent client connections (0 = unlimited)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		pipeline   = flag.Int("pipeline", 1, "max concurrent requests per connection (1 = sequential, pre-pipelining behavior)")
		wal        = flag.Bool("wal", true, "write-ahead logging for a -db file: acknowledged mutations survive a crash (false = flush-on-close only)")
		ckptEvery  = flag.Int("checkpoint-every", 1024, "checkpoint (flush + truncate the WAL) after this many commits; bounds replay on restart (<0 = never)")

		trace     = flag.Bool("trace", true, "distributed tracing: span every request tree, retain slow/error traces in the tail sampler")
		traceSlow = flag.Int("trace-slowest", 16, "tail sampler: always retain the N slowest complete traces")
		traceRate = flag.Float64("trace-head-rate", 0.01, "tail sampler: fraction of ordinary (fast, error-free) traces retained")
		traceMax  = flag.Int("trace-max", 64, "tail sampler: maximum retained traces (oldest non-slow evicted first)")
		slowReq   = flag.Duration("slow-request", 250*time.Millisecond, "log a warn line for requests slower than this (0 = never)")
		logLevel  = flag.String("log-level", "info", "structured log threshold: debug, info, warn or error")
	)
	flag.Parse()
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("-log-level: %w", err))
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})).With("proc", "gisd")

	lib, err := workload.StandardLibrary()
	if err != nil {
		fatal(err)
	}
	sys, err := gisui.Open(gisui.Config{
		Name: "GEO", Path: *dbPath, Library: lib,
		DisableWAL: !*wal, CheckpointEvery: *ckptEvery,
	})
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	var poleCount, ductCount int
	if sys.DB.Count(workload.SchemaName, "Pole") > 0 {
		// Recovered an existing database: re-register method code only.
		if err := workload.RegisterPoleMethods(sys.DB); err != nil {
			fatal(err)
		}
		poleCount = sys.DB.Count(workload.SchemaName, "Pole")
		ductCount = sys.DB.Count(workload.SchemaName, "Duct")
		fmt.Printf("gisd: recovered existing database from %s (%d WAL records replayed)\n",
			*dbPath, sys.DB.ReplayedRecords())
	} else {
		net, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
			Seed: *seed, ZonesPerSide: *zones, PolesPerZone: *poles})
		if err != nil {
			fatal(err)
		}
		poleCount, ductCount = len(net.Poles), len(net.Ducts)
	}
	switch *directives {
	case "none":
	case "figure6":
		if _, err := sys.InstallDirectives(workload.Figure6Source); err != nil {
			fatal(err)
		}
	default:
		data, err := os.ReadFile(*directives)
		if err != nil {
			fatal(err)
		}
		if _, err := sys.InstallDirectives(string(data)); err != nil {
			fatal(err)
		}
	}
	if *constrain {
		for _, c := range []topo.Constraint{
			{Name: "pole-in-zone", Schema: workload.SchemaName, Class: "Pole",
				With: "Zone", Relation: geom.Inside, Mode: topo.Require},
			{Name: "zones-disjoint", Schema: workload.SchemaName, Class: "Zone",
				With: "Zone", Relation: geom.Overlap, Mode: topo.Forbid},
		} {
			if err := sys.AddConstraint(c); err != nil {
				fatal(err)
			}
		}
	}
	// EnableTracing must run before NewServer below: NewServer snapshots the
	// sampler into the server's TraceStore for the trace verb.
	if *trace {
		sys.EnableTracing(obs.TailSamplerOptions{
			SlowestN:  *traceSlow,
			HeadRate:  *traceRate,
			MaxTraces: *traceMax,
		})
	}
	fmt.Printf("gisd: %s\n", sys.Describe())
	fmt.Printf("gisd: %d poles, %d ducts; serving on %s\n", poleCount, ductCount, *addr)
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			obs.Default().WriteText(w)
		})
		mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
			if sys.Traces == nil {
				http.Error(w, "tracing disabled (-trace=false)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(sys.Traces.Traces()); err != nil {
				logger.Warn("trace export failed", "err", err)
			}
		})
		mux.HandleFunc("/traces/chrome", func(w http.ResponseWriter, _ *http.Request) {
			if sys.Traces == nil {
				http.Error(w, "tracing disabled (-trace=false)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="gisd-trace.json"`)
			if err := obs.WriteChromeTrace(w, sys.Traces.Traces()); err != nil {
				logger.Warn("chrome trace export failed", "err", err)
			}
		})
		// Profiling rides the same mux (net/http/pprof registers on the
		// default mux only, so wire its handlers explicitly).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*metrics, mux); err != nil {
				fmt.Fprintln(os.Stderr, "gisd: metrics:", err)
			}
		}()
		fmt.Printf("gisd: metrics on http://%s/metrics (also /traces, /traces/chrome, /debug/pprof/)\n", *metrics)
	}

	// Graceful shutdown: on SIGINT/SIGTERM the server stops accepting,
	// drains in-flight requests under the -drain deadline, then the buffer
	// pool is flushed (sys.Close) so a -db file stays durable.
	srv := sys.NewServer()
	srv.IdleTimeout = *idle
	srv.MaxConns = *maxConns
	srv.PipelineDepth = *pipeline
	srv.Log = logger
	srv.SlowRequest = *slowReq
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil {
			fatal(err)
		}
	case sig := <-sigCh:
		fmt.Printf("gisd: %v — draining (deadline %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gisd: drain incomplete, connections force-closed: %v\n", err)
		} else {
			fmt.Println("gisd: drained cleanly")
		}
		if err := sys.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gisd:", err)
	os.Exit(1)
}
