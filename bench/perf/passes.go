package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"strings"
	"time"

	"c4/internal/metrics"
	"c4/internal/scenario"
)

// passBench runs a fixed list of registered scenarios serially, pass after
// pass, through scenario.RunOne. It is the paper and scale workloads.
type passBench struct {
	// seeds are the scenario seeds passes cycle through: the run's own
	// seed, the baseline's seed, so that every run from its second pass on
	// checks the committed baseline exactly, and one more derived from the
	// run's seed. A scenario's host cost depends on its seed (ECMP path
	// collisions), so the per-scenario medians span several.
	seeds []int64
	scns  []scenario.Scenario
	// base holds the committed baseline's tracked scenarios; it applies to
	// passes at its seed.
	base metrics.BenchReport
	// first is each scenario's first output at each seed; every later pass
	// at that seed must repeat it byte for byte.
	first map[passKey]passOutput
	// shapeMisses counts shape checks that failed away from the baseline's
	// seed.
	shapeMisses int
}

type passKey struct {
	name string
	seed int64
}

// passSeedStride separates the run's own seed from the third pass seed.
const passSeedStride = 1000003

type passOutput struct {
	rendering string
	events    uint64
	metrics   map[string]float64
}

func newPassBench(ctx context.Context, c config, names []string, warm string) (bench, error) {
	scns, err := scenario.Select(strings.Join(names, ","))
	if err != nil {
		return nil, err
	}
	if len(scns) != len(names) {
		return nil, fmt.Errorf("selection %v resolved to %d scenarios", names, len(scns))
	}
	b := &passBench{scns: scns, first: map[passKey]passOutput{}}
	f, err := os.Open(c.baseline)
	if err != nil {
		return nil, fmt.Errorf("opening baseline: %w", err)
	}
	defer f.Close()
	if b.base, err = metrics.ReadBenchReport(f); err != nil {
		return nil, err
	}
	b.seeds = []int64{c.seed, b.base.Seed, c.seed + passSeedStride}
	ws, ok := scenario.Get(warm)
	if !ok {
		return nil, fmt.Errorf("unknown warm-up scenario %q", warm)
	}
	if rep := scenario.RunOne(ctx, ws, warmSeed); rep.Err != nil {
		return nil, fmt.Errorf("warm-up: %w", rep.Err)
	}
	return b, nil
}

// run executes the scenarios in list order, pass after pass, until the
// deadline has passed and at least one full pass is done. A pass the
// deadline interrupts counts the scenarios it finished.
func (b *passBench) run(ctx context.Context, rec *recorder, deadline time.Time) {
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		seed := b.seeds[pass%len(b.seeds)]
		root := rec.begin(0, "bench", fmt.Sprintf("pass %d (seed %d)", pass, seed))
		for _, s := range b.scns {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			b.runOne(ctx, rec, root, s, seed)
			rec.tick()
		}
		rec.end(root)
	}
}

func (b *passBench) runOne(ctx context.Context, rec *recorder, root int, s scenario.Scenario, seed int64) {
	id := rec.begin(root, "scenario", s.Name)
	m := startMeter()
	rep := scenario.RunOne(ctx, s, seed)
	u := m.stop(float64(rep.Events))
	rec.end(id)
	rec.attempt(1)
	if err := b.check(s, seed, rep); err != nil {
		rec.fail(1, "%s (seed %d): %v", s.Name, seed, err)
		return
	}
	rec.unit(s.Name, u)
}

// check validates one scenario run: it completed, it repeats its first
// output at the seed exactly, and at the baseline's seed its shape check
// holds and its tracked events and metrics equal the committed baseline.
// The shape checks assert the paper's findings at the baseline's seed; at
// other seeds a few miss (fig3's loss at 512 GPUs, online detection beating
// batch), which is an outcome of the input, so a miss there is counted
// and reported but is not a failure.
func (b *passBench) check(s scenario.Scenario, seed int64, rep scenario.Report) error {
	if rep.Err != nil {
		return rep.Err
	}
	out := passOutput{rendering: rep.Result.String(), events: rep.Events}
	if s.Metrics != nil {
		out.metrics = s.Metrics(rep.Result)
	}
	key := passKey{s.Name, seed}
	if first, ok := b.first[key]; ok {
		if out.rendering != first.rendering || out.events != first.events {
			return fmt.Errorf("output differs from the first pass (%d vs %d events)", out.events, first.events)
		}
		return nil
	}
	if rep.ShapeErr != nil {
		if seed == b.base.Seed {
			return fmt.Errorf("shape check: %w", rep.ShapeErr)
		}
		b.shapeMisses++
	}
	for _, want := range b.base.Scenarios {
		if want.Name != s.Name || seed != b.base.Seed {
			continue
		}
		if out.events != want.Events {
			return fmt.Errorf("%d events, baseline has %d", out.events, want.Events)
		}
		if !maps.Equal(out.metrics, want.Metrics) {
			return fmt.Errorf("metrics %v differ from baseline %v", out.metrics, want.Metrics)
		}
	}
	b.first[key] = out
	return nil
}

func (b *passBench) layerMetrics(rec *recorder) map[string]float64 {
	m := map[string]float64{}
	var events uint64
	for _, s := range b.scns {
		m[scenarioMetric(s.Name)] = rec.keyMs(s.Name)
		events += b.first[passKey{s.Name, b.seeds[0]}].events
	}
	m["sim.events"] = float64(events)
	m["sim.ns_per_event"] = 1e6 * per(rec.unitMs(), rec.perUnit(func(u unitSample) float64 { return u.items }))
	agg := b.first[passKey{"netsim/scale-aggregate", b.seeds[0]}].metrics
	m["netsim.agg_link_visits"] = agg["new_linkvisits"]
	m["netsim.ref_link_visits"] = agg["ref_linkvisits"]
	online := b.first[passKey{"online/scale-sweep", b.seeds[0]}].metrics
	m["c4d.cells_per_pass_8n"] = online["batch_cells_per_pass_8n"]
	m["telemetry.ops_per_record_8n"] = online["online_ops_per_record_8n"]
	return m
}

func (b *passBench) detail(rec *recorder) map[string]float64 {
	m := map[string]float64{"shape_misses": float64(b.shapeMisses)}
	for _, s := range b.scns {
		m["scenario."+s.Name+".ms"] = rec.keyMs(s.Name)
	}
	return m
}

func (b *passBench) sizes() map[string]any {
	return map[string]any{"scenarios": len(b.scns), "pass_seeds": b.seeds}
}

// outputSHA hashes the outputs at the run's own seed, which the first pass
// always covers.
func (b *passBench) outputSHA() string {
	h := sha256.New()
	for _, s := range b.scns {
		out := b.first[passKey{s.Name, b.seeds[0]}]
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00", s.Name, out.events, out.rendering)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (b *passBench) close() error { return nil }
