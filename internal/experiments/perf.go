// Construction for the decision-cache testing.B series in bench_test.go.
// The end-to-end interaction benchmark lives in bench/.
package experiments

import (
	"fmt"

	"repro/internal/active"
	"repro/internal/event"
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
