// Package experiments holds the shared set-up of the reproduction harness:
// the Section 4 telephone network fixture, the paper's two contexts, and the
// constructions behind the testing.B series in the root bench_test.go. Its
// Examples print Figures 1–7 and the B3 cost table, and go test checks each
// printout byte for byte. The B1–B9 numbers come from bench_test.go through
// `make experiments` (EXPERIMENTS.md); the end-to-end interaction benchmark
// lives in bench/.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/workload"
)

// Fixture is the standard experimental setup: a system holding the Section
// 4 telephone network with the standard library, optionally with the Figure
// 6 rules installed.
type Fixture struct {
	Sys *core.System
	Net *workload.PhoneNet
}

// JulianoCtx is the customized context of Section 4.
var JulianoCtx = event.Context{User: "juliano", Application: "pole_manager"}

// MariaCtx is a generic user in the same application.
var MariaCtx = event.Context{User: "maria", Application: "pole_manager"}

// JulianoEvent is a representative event in juliano's context for exercising
// rule actions outside a live dispatch.
func JulianoEvent() event.Event {
	return event.Event{Ctx: JulianoCtx}
}

// NewFixture builds the fixture at the given scale.
func NewFixture(polesPerZone, zonesPerSide int, withRules bool) (*Fixture, error) {
	lib, err := workload.StandardLibrary()
	if err != nil {
		return nil, err
	}
	sys, err := core.Open(core.Config{Name: "GEO", Library: lib})
	if err != nil {
		return nil, err
	}
	net, err := workload.BuildPhoneNet(sys.DB, workload.PhoneNetOptions{
		Seed:         1997,
		ZonesPerSide: zonesPerSide,
		PolesPerZone: polesPerZone,
	})
	if err != nil {
		_ = sys.Close()
		return nil, err
	}
	if withRules {
		if _, err := sys.InstallDirectives(workload.Figure6Source); err != nil {
			_ = sys.Close()
			return nil, err
		}
	}
	return &Fixture{Sys: sys, Net: net}, nil
}

// MustFixture panics on fixture errors (benchmark setup).
func MustFixture(polesPerZone, zonesPerSide int, withRules bool) *Fixture {
	f, err := NewFixture(polesPerZone, zonesPerSide, withRules)
	if err != nil {
		panic(fmt.Sprintf("experiments: fixture: %v", err))
	}
	return f
}

// Close releases the fixture.
func (f *Fixture) Close() error { return f.Sys.Close() }
