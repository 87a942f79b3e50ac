// Constructions for the decision-cache and pipelined-client testing.B series
// in bench_test.go. The end-to-end interaction benchmark lives in bench/.
package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/active"
	"repro/internal/client"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/ui"
	"repro/internal/workload"
)

// dispatchBackgroundRules is the number of category-scoped directives
// installed alongside Figure 6: a site-wide installation carries rules for
// every (category, application) pair in the organization, and all of them
// sit in the user-wildcard bucket the uncached dispatch must scan for each
// event. 512 ≈ 32 categories × 16 applications.
const dispatchBackgroundRules = 512

// DispatchBench dispatches the Figure 6 schema decision (juliano /
// pole_manager) against an engine that also carries a population of
// category-scoped background rules.
type DispatchBench struct {
	Engine *active.Engine
	Probe  event.Event
	f      *Fixture
}

// NewDispatchBench builds the engine with the decision cache on or off;
// everything else is identical between the two variants.
func NewDispatchBench(cached bool) (*DispatchBench, error) {
	f, err := NewFixture(1, 1, false)
	if err != nil {
		return nil, err
	}
	engine := active.NewEngine()
	engine.CacheDecisions = cached
	a := f.Sys.Analyzer()
	if _, err := a.Install(engine, workload.Figure6Source); err != nil {
		_ = f.Close()
		return nil, err
	}
	var bg []byte
	for i := 0; i < dispatchBackgroundRules; i++ {
		bg = fmt.Appendf(bg, "For category cat%02d application app%02d\nschema %s display as hierarchy\n\n",
			i/16, i%16, workload.SchemaName)
	}
	if _, err := a.Install(engine, string(bg)); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &DispatchBench{
		Engine: engine,
		Probe:  event.Event{Kind: event.GetSchema, Schema: workload.SchemaName, Ctx: JulianoCtx},
		f:      f,
	}, nil
}

// Step selects the probe's customization once, mirroring what a session
// does per window open.
func (d *DispatchBench) Step() error {
	_, err := d.Engine.Select(d.Probe)
	return err
}

func (d *DispatchBench) Close() error { return d.f.Close() }

// laggedBackend simulates a DBMS a network away: every GetSchema pays a
// fixed latency before the real backend answers. Pipelining exists to hide
// exactly this, so the depth contrast stays meaningful on a single CPU.
type laggedBackend struct {
	ui.Backend
	delay time.Duration
}

func (lb *laggedBackend) GetSchema(ctx event.Context, schema string) (geodb.SchemaInfo, *spec.Customization, error) {
	time.Sleep(lb.delay)
	return lb.Backend.GetSchema(ctx, schema)
}

// PipelineBench multiplexes concurrent callers over ONE client connection
// against a real pipelined server.Server on a TCP loopback.
type PipelineBench struct {
	Cli *client.Client
	srv *server.Server
	f   *Fixture
}

func NewPipelineBench(delay time.Duration) (*PipelineBench, error) {
	f, err := NewFixture(4, 1, false)
	if err != nil {
		return nil, err
	}
	srv := server.New(&laggedBackend{Backend: f.Sys.Backend, delay: delay})
	srv.PipelineDepth = 16
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	go srv.Serve(l)
	cli, err := client.Dial(l.Addr().String())
	if err != nil {
		_ = srv.Close()
		_ = f.Close()
		return nil, err
	}
	return &PipelineBench{Cli: cli, srv: srv, f: f}, nil
}

// Do issues n GetSchema requests spread over depth concurrent callers
// sharing the one multiplexed connection.
func (p *PipelineBench) Do(depth, n int) error {
	work := make(chan struct{})
	errc := make(chan error, depth)
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				if _, _, err := p.Cli.GetSchema(JulianoCtx, workload.SchemaName); err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- struct{}{}:
		case err = <-errc:
			break feed
		}
	}
	close(work)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errc:
		default:
		}
	}
	return err
}

func (p *PipelineBench) Close() {
	_ = p.Cli.Close()
	_ = p.srv.Close()
	_ = p.f.Close()
}
