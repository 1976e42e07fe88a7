// Package harness reproduces every table and figure of the C4 paper's
// motivation and evaluation sections (§II, §IV). Each experiment is a
// RunXxx function returning a typed result with a String() rendering of
// the paper's rows/series and a CheckShape() method asserting the
// qualitative claims — who wins, by roughly what factor, where crossovers
// fall. Absolute numbers come from the simulated substrate (DESIGN.md §2)
// and are compared against the paper's in EXPERIMENTS.md.
//
// Every experiment is also registered by name in the scenario registry
// (register.go): `c4 bench`, `c4 analyze -demo` and c4.Session run them
// through the worker-pool runner in internal/scenario, and the tests here
// prove a parallel sweep reproduces a serial one byte for byte. The
// RunXxx functions remain as thin wrappers over the registered
// implementations.
package harness

import (
	"fmt"

	"c4/internal/accl"
	"c4/internal/c4p"
	"c4/internal/faults"
	"c4/internal/netsim"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// Env is one simulated cluster instance.
type Env struct {
	Eng  *sim.Engine
	Topo *topo.Topology
	Net  *netsim.Network
}

// NewEnv builds a fresh engine+fabric+network for a spec.
func NewEnv(spec topo.Spec) *Env {
	eng := sim.NewEngine()
	t := topo.MustNew(spec)
	return &Env{Eng: eng, Topo: t, Net: netsim.New(eng, t, netsim.DefaultConfig())}
}

// newEnv builds an Env for a scenario run and registers its engine with
// the context so the runner can report per-scenario event counts.
func newEnv(ctx *scenario.Ctx, spec topo.Spec) *Env {
	e := NewEnv(spec)
	ctx.Track(e.Eng)
	return e
}

// ProviderKind selects the path-control policy under test.
type ProviderKind int

// The three policies compared across the evaluation.
const (
	// Baseline is plain ECMP hashing with no coordination.
	Baseline ProviderKind = iota
	// C4PStatic is C4P global traffic engineering at connect time.
	C4PStatic
	// C4PDynamic adds master reallocation and QP load balance on failures.
	C4PDynamic
)

func (p ProviderKind) String() string {
	switch p {
	case Baseline:
		return "baseline"
	case C4PStatic:
		return "c4p-gte"
	case C4PDynamic:
		return "c4p-dynamic"
	}
	return "unknown"
}

// NewProvider instantiates the policy on an environment.
func (e *Env) NewProvider(kind ProviderKind, seed int64) accl.PathProvider {
	return kind.On(seed)(e.Topo)
}

// On returns the policy's constructor, for a topology built elsewhere (a
// faults.Rig's).
func (p ProviderKind) On(seed int64) func(*topo.Topology) accl.PathProvider {
	return func(t *topo.Topology) accl.PathProvider {
		switch p {
		case C4PStatic:
			return c4p.NewMaster(t, c4p.Static, sim.NewRand(seed))
		case C4PDynamic:
			return c4p.NewMaster(t, c4p.Dynamic, sim.NewRand(seed))
		default:
			return accl.NewECMPProvider(t, sim.NewRand(seed))
		}
	}
}

// InterleavedNodes returns m nodes alternating between the leaf groups of
// the multi-job testbed, so every ring edge crosses the spine layer (the
// paper's benchmark placement, the campaigns' spread).
func InterleavedNodes(m int) []int { return faults.Interleave(m) }

// fig10JobNodes returns the node pair of concurrent job i (i in [0,8)):
// one server per leaf group, as in Fig 10's setup.
func fig10JobNodes(i int) []int { return []int{i, i + 8} }

func pct(gain float64) string { return fmt.Sprintf("%+.1f%%", gain*100) }
