package gisui_test

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/geodb"
	"repro/internal/geom"
	"repro/internal/proto"
	"repro/internal/render"
	"repro/internal/ui"
	"repro/internal/uikit"
	"repro/internal/workload"
)

// pictureNet opens the Section 4 network with Figure 6's rules and a bitmap
// picture on every pole, so a reply that carried attribute values would
// carry pictures.
func pictureNet(t *testing.T) (*core.System, *workload.PhoneNet) {
	t.Helper()
	lib, err := workload.StandardLibrary()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Open(core.Config{Name: "GEO", Library: lib})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	pn, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
		Seed: 1997, ZonesPerSide: 2, PolesPerZone: 6, PictureBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.InstallDirectives(workload.Figure6Source); err != nil {
		t.Fatal(err)
	}
	return sys, pn
}

// classWindows opens, for one class, every window kind built from a Class
// set reply — the class, a zoomed viewport, an analysis and a scenario —
// and renders each. The scenario deletes the first instance, moves the
// second and inserts a copy of the third, so the merge runs on every class.
func classWindows(t *testing.T, s *ui.Session, db *geodb.DB, pn *workload.PhoneNet, class string) []string {
	t.Helper()
	var out []string
	add := func(w *uikit.Widget, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		out = append(out, render.Text(w))
	}
	add(s.OpenClass(workload.SchemaName, class))
	b := pn.Bounds
	add(s.OpenClassZoomed(workload.SchemaName, class,
		geom.R(b.Min.X, b.Min.Y, (b.Min.X+b.Max.X)/2, (b.Min.Y+b.Max.Y)/2)))
	var filters []geodb.Filter
	if class == "Pole" {
		filters = []geodb.Filter{{Attr: "pole_type", Op: "ge", Value: catalog.IntVal(1)}}
	}
	add(s.Analyze(workload.SchemaName, class, filters))

	all, err := db.Select(workload.SchemaName, class, nil)
	if err != nil || len(all) < 3 {
		t.Fatalf("%s: %d instances, %v", class, len(all), err)
	}
	moved := func(in geodb.Instance, dx float64) []catalog.Value {
		values := append([]catalog.Value(nil), in.Values...)
		for i, a := range in.Attrs {
			if a.Type.Kind == catalog.KindGeometry && values[i].Geom != nil {
				shift := geom.Affine{A: 1, C: dx, E: 1, F: dx}
				values[i] = catalog.GeomVal(shift.ApplyToGeometry(values[i].Geom))
			}
		}
		return values
	}
	if err := s.StartScenario("what-if"); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioDelete(all[0].OID); err != nil {
		t.Fatal(err)
	}
	if err := s.ScenarioUpdate(all[1].OID, moved(all[1], 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScenarioInsert(workload.SchemaName, class, moved(all[2], 11)); err != nil {
		t.Fatal(err)
	}
	add(s.OpenClassSimulated(workload.SchemaName, class))
	if err := s.DropScenario(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClassWindowsTransparentOverPipe: every window built from a Class set
// reply renders the same over the protocol as in process (§3.5), for the
// customized and the generic context and every class of the schema.
func TestClassWindowsTransparentOverPipe(t *testing.T) {
	sys, pn := pictureNet(t)
	info, err := sys.DB.GetSchema(event.Context{}, workload.SchemaName)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []event.Context{experiments.JulianoCtx, experiments.MariaCtx} {
		local := sys.NewSession(ctx)
		remote, closeRemote, err := sys.PipeSession(sys.Library, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*ui.Session{local, remote} {
			if err := s.Connect(); err != nil {
				t.Fatal(err)
			}
		}
		for _, class := range info.Classes {
			want := classWindows(t, local, sys.DB, pn, class)
			got := classWindows(t, remote, sys.DB, pn, class)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s %s window %d differs over the pipe:\n--- pipe\n%s\n--- in process\n%s",
						ctx.User, class, i, got[i], want[i])
				}
			}
		}
		closeRemote()
	}
}

// TestClassReplyCarriesOnlyShapes reads Get_Class replies off the wire and
// requires the class metadata plus one (oid, g) pair per drawn instance:
// no attribute values, no pictures.
func TestClassReplyCarriesOnlyShapes(t *testing.T) {
	sys, pn := pictureNet(t)
	srvConn, cliConn := net.Pipe()
	srv := sys.NewServer()
	go srv.ServeConn(srvConn)
	defer func() {
		_ = cliConn.Close()
		_ = srv.Close()
	}()
	requests := []struct {
		req   proto.Request
		drawn int
	}{
		{proto.Request{ID: 1, Op: proto.OpGetClass, Ctx: experiments.JulianoCtx,
			Schema: workload.SchemaName, Class: "Pole"}, len(pn.Poles)},
		{proto.Request{ID: 2, Op: proto.OpGetClass, Ctx: experiments.MariaCtx,
			Schema: workload.SchemaName, Class: "Pole", Window: pn.Bounds.WKT()}, len(pn.Poles)},
		{proto.Request{ID: 3, Op: proto.OpGetClass, Ctx: experiments.MariaCtx,
			Schema: workload.SchemaName, Class: "Supplier"}, 0},
	}
	for _, r := range requests {
		if err := proto.WriteMessage(cliConn, r.req); err != nil {
			t.Fatal(err)
		}
		var hdr [4]byte
		if _, err := io.ReadFull(cliConn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(cliConn, frame); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(frame, &doc); err != nil {
			t.Fatal(err)
		}
		if e, ok := doc["err"]; ok {
			t.Fatalf("request %d: %v", r.req.ID, e)
		}
		var walk func(v any)
		walk = func(v any) {
			switch v := v.(type) {
			case map[string]any:
				for k, c := range v {
					if k == "values" || k == "bm" {
						t.Fatalf("request %d: reply carries attribute values (%q key):\n%s", r.req.ID, k, frame)
					}
					walk(c)
				}
			case []any:
				for _, c := range v {
					walk(c)
				}
			}
		}
		walk(doc)
		class, _ := doc["class"].(map[string]any)
		shapes, _ := class["shapes"].([]any)
		if len(shapes) != r.drawn {
			t.Fatalf("request %d: %d shapes, want %d", r.req.ID, len(shapes), r.drawn)
		}
		for _, sh := range shapes {
			m, _ := sh.(map[string]any)
			if _, ok := m["oid"]; !ok || len(m) != 2 {
				t.Fatalf("request %d: shape %v, want only oid and g", r.req.ID, sh)
			}
			if _, ok := m["g"].(string); !ok {
				t.Fatalf("request %d: shape %v, want only oid and g", r.req.ID, sh)
			}
		}
	}
}
