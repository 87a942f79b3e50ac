// End-to-end acceptance test for the tracing layer (DESIGN.md §12): a
// Figure-6 interaction through the public gisui API against a live
// weak-integration server yields ONE trace crossing client → server →
// rule-engine dispatch (cache verdict visible) → database → WAL commit,
// retrievable over the trace protocol verb.
package gisui_test

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	gisui "repro"
	"repro/internal/catalog"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// spanByName returns the first span with the given name.
func spanByName(td obs.TraceData, name string) (obs.Span, bool) {
	for _, sp := range td.Spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.Span{}, false
}

// attr returns the value of a span attribute.
func attr(sp obs.Span, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func TestEndToEndTraceAcrossProcessesAndLayers(t *testing.T) {
	lib, err := workload.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	// File-backed with WAL on, so a committed scenario reaches a WAL fsync.
	sys := gisui.MustOpen(gisui.Config{
		Name: "GEO", Path: filepath.Join(t.TempDir(), "geo.db"), Library: lib,
	})
	defer sys.Close()
	if _, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
		Seed: 1997, ZonesPerSide: 1, PolesPerZone: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.InstallDirectives(workload.Figure6Source); err != nil {
		t.Fatal(err)
	}
	ts := sys.EnableTracing(obs.TailSamplerOptions{SlowestN: 32, HeadRate: 0})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.NewServer()
	go srv.Serve(l)
	defer srv.Close()

	sess, cli, err := gisui.RemoteSessionOptions(l.Addr().String(), lib,
		gisui.Context("juliano", "", "pole_manager"), gisui.ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Both processes share this test binary, so one sampler can collect
	// both halves of every trace: client/UI spans join the server's sink.
	cli.Tracer().AttachSink(ts)

	if err := sess.Connect(); err != nil {
		t.Fatal(err)
	}
	// The Figure-6 interaction, twice: the first dispatch is a decision-
	// cache miss, the second a hit — both visible in the trace.
	if _, err := sess.OpenClass(workload.SchemaName, "Pole"); err != nil {
		t.Fatal(err)
	}
	if err := sess.CloseWindow("classset:Pole"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.OpenClass(workload.SchemaName, "Pole"); err != nil {
		t.Fatal(err)
	}
	// A scenario commit drives the mutation path: the txn verb → one geodb
	// transaction → WAL commit.
	if err := sess.StartScenario("expansion"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ScenarioInsert(workload.SchemaName, "Pole", []catalog.Value{
		catalog.Null, catalog.Null, catalog.Null,
		catalog.GeomVal(geom.Pt(3, 4)),
		catalog.Null, catalog.Null,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CommitScenario(); err != nil {
		t.Fatal(err)
	}

	// Retrieve the retained traces over the trace verb (the wire path a
	// gisbrowse `trace` command takes). Server request spans finish after
	// the response frame leaves, so poll briefly for the commit trace.
	var commit obs.TraceData
	deadline := time.Now().Add(2 * time.Second)
	for {
		traces, err := cli.Traces()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, td := range traces {
			if _, ok := spanByName(td, "ui.commit_scenario"); !ok {
				continue
			}
			if _, ok := spanByName(td, "server.txn"); ok {
				commit, found = td, true
				break
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete commit trace among %d retained traces", len(traces))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One coherent tree: every layer present, all on one trace ID, each
	// span parented on the layer above it.
	uiSpan, _ := spanByName(commit, "ui.commit_scenario")
	cliSpan, okCli := spanByName(commit, "client.txn")
	srvSpan, okSrv := spanByName(commit, "server.txn")
	dbSpan, okDB := spanByName(commit, "geodb.txn_commit")
	walSpan, okWAL := spanByName(commit, "wal.commit")
	if !okCli || !okSrv || !okDB || !okWAL {
		names := make([]string, 0, len(commit.Spans))
		for _, sp := range commit.Spans {
			names = append(names, sp.Name)
		}
		t.Fatalf("commit trace misses a layer (client %v server %v db %v wal %v): %v",
			okCli, okSrv, okDB, okWAL, names)
	}
	for _, sp := range commit.Spans {
		if sp.Trace != commit.TraceID {
			t.Errorf("span %q on trace %x, want %x", sp.Name, sp.Trace, commit.TraceID)
		}
	}
	if cliSpan.Parent != uiSpan.ID {
		t.Errorf("client span parent = %x, want the UI interaction %x", cliSpan.Parent, uiSpan.ID)
	}
	attempt, okAtt := spanByName(commit, "client.attempt")
	if !okAtt || srvSpan.Parent != attempt.ID {
		t.Errorf("server span parent = %x, want the client attempt (%v)", srvSpan.Parent, okAtt)
	}
	if dbSpan.Parent != srvSpan.ID {
		t.Errorf("geodb span parent = %x, want the server span %x", dbSpan.Parent, srvSpan.ID)
	}
	if walSpan.Parent != dbSpan.ID {
		t.Errorf("wal span parent = %x, want the geodb span %x", walSpan.Parent, dbSpan.ID)
	}

	// The decision cache's verdicts are visible on the dispatch spans of
	// the two class opens: first a miss, then a hit.
	var verdicts []string
	for _, td := range mustTraces(t, cli) {
		if _, ok := spanByName(td, "ui.open_class"); !ok {
			continue
		}
		for _, sp := range td.Spans {
			if sp.Name == "active.dispatch" && attr(sp, "class") == "Pole" {
				if v := attr(sp, "cache"); v != "" {
					verdicts = append(verdicts, v)
				}
			}
		}
	}
	if len(verdicts) < 2 || verdicts[0] != "miss" || verdicts[1] != "hit" {
		t.Errorf("dispatch cache verdicts = %v, want [miss hit ...]", verdicts)
	}

	// Single-trace fetch over the wire (the trace <id> command).
	td, err := cli.Trace(commit.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if td.TraceID != commit.TraceID || len(td.Spans) == 0 {
		t.Errorf("trace fetch by ID = %+v", td)
	}
	if _, err := cli.Trace(0xDEAD); err == nil {
		t.Error("fetching an unretained trace should fail")
	}

	// The whole export loads as Chrome trace_event JSON.
	if ts.Len() == 0 {
		t.Fatal("sampler empty at export time")
	}
}

// mustTraces fetches the retained traces over the trace verb.
func mustTraces(t *testing.T, cli interface {
	Traces() ([]obs.TraceData, error)
}) []obs.TraceData {
	t.Helper()
	traces, err := cli.Traces()
	if err != nil {
		t.Fatal(err)
	}
	return traces
}
