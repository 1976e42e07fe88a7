// Package scenario turns the C4 reproduction's experiments into an open
// registry of named, parameterized scenarios plus a worker-pool runner
// that executes any selection concurrently.
//
// Every experiment — each paper figure/table, every ablation, the live
// recovery pipeline, the nccltest benchmark — registers itself once under
// a stable name. Each scenario builds its own isolated sim.Engine, fabric
// and network from its own seeded RNG inside Run, so scenarios share no
// state and the parallel runner produces results byte-identical to a
// serial sweep (the engine's seq-ordered event queue guarantees each
// individual run is deterministic; the registry guarantees isolation).
package scenario

import (
	"context"
	"fmt"
)

// Result is what every scenario produces: a printable rendering of the
// paper's rows/series plus a shape check asserting the paper's
// qualitative claims against the measured numbers.
type Result interface {
	fmt.Stringer
	// CheckShape reports nil when the measurement matches the paper's
	// qualitative claim (who wins, by roughly what factor).
	CheckShape() error
}

// EventCounter is the slice of a sim.Engine a Ctx needs for accounting.
type EventCounter interface {
	Fired() uint64
}

// Ctx is the execution context handed to a scenario's Run: the seed all
// randomness must derive from, and an event-count accumulator fed by
// every engine the scenario builds. A Ctx belongs to exactly one run on
// one goroutine.
type Ctx struct {
	// Seed is the root seed; scenarios derive all RNG streams from it so
	// equal seeds give bit-identical results.
	Seed int64
	// Context carries the caller's cancellation signal. Long-running
	// scenario code may poll it and abandon work early; the runner also
	// refuses to start new scenarios once it is cancelled. It never
	// affects results of runs that complete: a scenario either finishes
	// bit-identically or reports a cancellation error.
	Context context.Context
	// Workers bounds any nested worker pool the scenario spawns (the
	// fault campaigns run trials concurrently); 0 means GOMAXPROCS. The
	// runner propagates its own bound here so `-workers 1` really is a
	// serial run.
	Workers int

	counters []EventCounter
}

// NewCtx returns a context for one scenario execution.
func NewCtx(seed int64) *Ctx { return &Ctx{Seed: seed, Context: context.Background()} }

// Track registers an engine (or anything that counts fired events) so the
// runner can report per-scenario event totals.
func (c *Ctx) Track(ec EventCounter) { c.counters = append(c.counters, ec) }

// Events sums fired events across every tracked engine.
func (c *Ctx) Events() uint64 {
	var total uint64
	for _, ec := range c.counters {
		total += ec.Fired()
	}
	return total
}

// Scenario is one named, parameterized experiment.
type Scenario struct {
	// Name is the stable identifier used by -scenario flags and tests
	// (e.g. "fig12", "ablation-kappa").
	Name string
	// Group classifies the scenario: "table", "figure", "ablation",
	// "pipeline" or "bench".
	Group string
	// Description is a one-line summary of what the scenario reproduces.
	Description string
	// Paper states the source paper's quantitative claim, for the
	// paper-vs-measured table in EXPERIMENTS.md.
	Paper string
	// Params documents the fixed parameters this registration binds
	// (e.g. {"spines": "4"} for the 2:1 oversubscription variant).
	Params map[string]string
	// Slow marks scenarios skipped under `go test -short`.
	Slow bool
	// Run executes the experiment. It must build every engine, fabric and
	// RNG from the Ctx so concurrent executions cannot interact.
	Run func(*Ctx) Result
	// Summarize renders a one-line measured headline from a Result
	// produced by Run (optional; used for EXPERIMENTS.md).
	Summarize func(Result) string
	// Metrics extracts the deterministic key numbers tracked by the
	// bench-regression guard (optional). Scenarios with a Metrics
	// extractor are included in `c4 bench -json` baselines; CI fails when
	// a tracked number drifts from the committed baseline.
	Metrics func(Result) map[string]float64
}
