package harness

import (
	"fmt"
	"strings"

	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// Fig10Result reproduces Fig 10: eight concurrent 2-node allreduce jobs,
// each spanning the two leaf groups, with and without C4P global traffic
// engineering, at 1:1 (8 spines) and 2:1 (4 spines) oversubscription.
type Fig10Result struct {
	Oversub  string
	Spines   int
	Baseline []float64 // mean busbw per task, Gbps
	C4P      []float64
	// AvgGain is the relative improvement of aggregate throughput.
	AvgGain float64
}

// runConcurrentJobs launches the 8 jobs and runs until the deadline,
// returning each task's mean bus bandwidth. The env outlives the call so
// callers can sample counters (Fig 11/13 reuse this).
func runConcurrentJobs(e *Env, kind c4p.ProviderKind, seed int64, until sim.Time, qps int) []*Bench {
	prov := e.NewProvider(kind, seed)
	benches := make([]*Bench, 8)
	for i := 0; i < 8; i++ {
		b, err := StartBench(e, BenchConfig{
			Nodes: fig10JobNodes(i), Bytes: 512 << 20, Until: until,
			Provider: prov, QPsPerConn: qps, Seed: seed + int64(i),
		})
		if err != nil {
			panic(err)
		}
		benches[i] = b
	}
	return benches
}

// RunFig10 executes one oversubscription setting.
func RunFig10(seed int64, spines int) Fig10Result {
	return runFig10(scenario.NewCtx(seed), spines)
}

func runFig10(ctx *scenario.Ctx, spines int) Fig10Result {
	seed := ctx.Seed
	res := Fig10Result{Spines: spines}
	if spines >= 8 {
		res.Oversub = "1:1"
	} else {
		res.Oversub = "2:1"
	}
	const horizon = 60 * sim.Second
	var sums [2]float64
	for pi, kind := range []c4p.ProviderKind{c4p.Baseline, c4p.C4PStatic} {
		e := newEnv(ctx, topo.MultiJobTestbed(spines))
		benches := runConcurrentJobs(e, kind, seed, horizon, 2)
		e.Eng.RunUntil(horizon + 30*sim.Second) // let in-flight iterations drain
		for _, b := range benches {
			m := b.MeanBusGbps()
			if kind == c4p.Baseline {
				res.Baseline = append(res.Baseline, m)
			} else {
				res.C4P = append(res.C4P, m)
			}
			sums[pi] += m
		}
	}
	if sums[0] > 0 {
		res.AvgGain = sums[1]/sums[0] - 1
	}
	return res
}

// String renders the per-task bars.
func (r Fig10Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 10 (%s oversubscription) — 8 concurrent allreduce tasks, busbw (Gbps)\n", r.Oversub)
	rows := make([][]string, 8)
	for i := 0; i < 8; i++ {
		rows[i] = []string{
			fmt.Sprintf("Task%d", i+1),
			fmt.Sprintf("%.1f", r.Baseline[i]),
			fmt.Sprintf("%.1f", r.C4P[i]),
		}
	}
	sb.WriteString(metrics.Table([]string{"task", "baseline", "C4P-GTE"}, rows))
	fmt.Fprintf(&sb, "aggregate gain: %s\n", pct(r.AvgGain))
	return sb.String()
}

// CheckShape validates the paper's claims: with C4P all tasks are tight
// and near the achievable peak; without it the spread is wide and the
// average much lower (paper: +70.3% at 1:1, +65.55% at 2:1).
func (r Fig10Result) CheckShape() error {
	c4pMin, c4pMax := metrics.Min(r.C4P), metrics.Max(r.C4P)
	baseMin := metrics.Min(r.Baseline)
	if r.Oversub == "1:1" {
		if c4pMin < 330 {
			return fmt.Errorf("fig10 1:1: C4P min task = %.1f, want ≈355+", c4pMin)
		}
		if c4pMax-c4pMin > 25 {
			return fmt.Errorf("fig10 1:1: C4P spread = %.1f, want tight", c4pMax-c4pMin)
		}
		if baseMin > 300 {
			return fmt.Errorf("fig10 1:1: baseline min task = %.1f, want degraded (<300)", baseMin)
		}
		if r.AvgGain < 0.2 {
			return fmt.Errorf("fig10 1:1: aggregate gain = %.2f, want large (paper 0.70)", r.AvgGain)
		}
		return nil
	}
	// 2:1: the fabric itself caps ≈200 Gbps/task; C4P should sit near the
	// cap with a small spread, baseline below with a long tail.
	if c4pMin < 150 || c4pMax > 250 {
		return fmt.Errorf("fig10 2:1: C4P range [%.1f,%.1f], want ≈200", c4pMin, c4pMax)
	}
	if r.AvgGain < 0.15 {
		return fmt.Errorf("fig10 2:1: aggregate gain = %.2f, want large (paper 0.66)", r.AvgGain)
	}
	return nil
}
