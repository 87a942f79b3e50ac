package server

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/active"
	"repro/internal/client"
	"repro/internal/custlang"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/spec"
	"repro/internal/ui"
	"repro/internal/workload"
)

// TestSameContextSelectionsStayWithTheirCall runs two juliano/pole_manager
// sessions through each retrieval primitive at once, in process and through
// one server over TCP. Each reply must carry the customization a sequential
// call returns (§3.3: the selection belongs to the call that asked).
func TestSameContextSelectionsStayWithTheirCall(t *testing.T) {
	ctx := event.Context{User: "juliano", Application: "pole_manager"}
	for _, binding := range []string{"in-process", "tcp"} {
		for _, kind := range []event.Kind{event.GetSchema, event.GetClass, event.GetValue} {
			t.Run(binding+"/"+kind.String(), func(t *testing.T) {
				db := mustOpen(t, geodb.Options{})
				pn, err := workload.BuildPhoneNet(db, workload.PhoneNetOptions{ZonesPerSide: 1, PolesPerZone: 4})
				if err != nil {
					t.Fatal(err)
				}
				lib, err := workload.StandardLibrary()
				if err != nil {
					t.Fatal(err)
				}
				engine := active.NewEngine()
				if _, err := (&custlang.Analyzer{Cat: db.Catalog(), Lib: lib}).Install(engine, workload.Figure6Source); err != nil {
					t.Fatal(err)
				}
				backend := ui.NewDirectBackend(db, engine)
				// Subscribed after the engine: once armed, hold each event of
				// the kind under test until both sessions' events have arrived,
				// so both selections are made before either primitive returns.
				var armed atomic.Bool
				var arrived atomic.Int32
				both := make(chan struct{})
				db.Bus().Subscribe(event.HandlerFunc(func(e event.Event) error {
					if !armed.Load() || e.Kind != kind {
						return nil
					}
					if arrived.Add(1) == 2 {
						close(both)
					}
					select {
					case <-both:
						return nil
					case <-time.After(10 * time.Second):
						return errors.New("the other session's event never arrived")
					}
				}))

				sessions := []ui.Backend{backend, backend}
				if binding == "tcp" {
					srv := New(backend)
					l, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					go srv.Serve(l)
					t.Cleanup(func() { srv.Close() })
					for i := range sessions {
						c, err := client.Dial(l.Addr().String())
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { c.Close() })
						sessions[i] = c
					}
				}
				call := func(b ui.Backend) (c *spec.Customization, err error) {
					switch kind {
					case event.GetSchema:
						_, c, err = b.GetSchema(ctx, workload.SchemaName)
					case event.GetClass:
						_, c, err = b.GetClass(ctx, workload.SchemaName, "Pole")
					default:
						_, c, err = b.GetValue(ctx, pn.Poles[0])
					}
					return c, err
				}
				want, err := call(sessions[0])
				if err != nil || want == nil {
					t.Fatalf("sequential call: %+v, %v", want, err)
				}

				armed.Store(true)
				var wg sync.WaitGroup
				for i, s := range sessions {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got, err := call(s); err != nil || !reflect.DeepEqual(got, want) {
							t.Errorf("session %d: customization = %+v, %v; want %+v", i, got, err, want)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
