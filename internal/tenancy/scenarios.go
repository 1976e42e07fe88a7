// The tenancy/* scenario family: parameterized multi-tenant experiments
// registered by internal/harness and executed through the scenario
// registry. Each scenario derives every engine and RNG from its Ctx seed,
// so the parallel runner reproduces a serial sweep byte for byte.
package tenancy

import (
	"fmt"
	"strings"

	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sched"
	"c4/internal/sim"
)

// uniformTrace builds n identical jobs of the given size arriving shortly
// after the epoch and holding their nodes past the horizon — the fixed
// concurrent-jobs load of the collision and placement experiments.
func uniformTrace(n, nodes int, durationS, computeMS float64) Trace {
	var t Trace
	for i := 0; i < n; i++ {
		t.Events = append(t.Events, TraceEvent{
			AtS:       float64(i) * 0.5,
			Name:      fmt.Sprintf("job%d", i),
			Nodes:     nodes,
			DurationS: durationS,
			ComputeMS: computeMS,
		})
	}
	return t
}

// CollisionSweepResult compares pinned ECMP against C4P as concurrent
// jobs pile onto the shared 2:1 fabric.
type CollisionSweepResult struct {
	JobCounts []int
	// ECMP and C4P hold one RunResult per job count, same order.
	ECMP []RunResult
	C4P  []RunResult
}

// Fired implements scenario.EventCounter.
func (r *CollisionSweepResult) Fired() uint64 {
	var n uint64
	for _, rr := range r.ECMP {
		n += rr.Fired
	}
	for _, rr := range r.C4P {
		n += rr.Fired
	}
	return n
}

// RunCollisionSweep executes the sweep: job count x steering arm on the
// 2:1 oversubscribed fabric with spread placement, so every ring edge
// crosses the spine layer and jobs genuinely collide.
func RunCollisionSweep(ctx *scenario.Ctx) *CollisionSweepResult {
	res := &CollisionSweepResult{JobCounts: []int{1, 2, 4}}
	res.ECMP = make([]RunResult, len(res.JobCounts))
	res.C4P = make([]RunResult, len(res.JobCounts))
	type cell struct {
		count int
		arm   c4p.ProviderKind
		out   *RunResult
	}
	var cells []cell
	for i, n := range res.JobCounts {
		cells = append(cells,
			cell{n, c4p.Baseline, &res.ECMP[i]},
			cell{n, c4p.C4PDynamic, &res.C4P[i]})
	}
	scenario.ForEach(len(cells), ctx.Workers, func(i int) {
		c := cells[i]
		*c.out = Run(Config{
			Spines:  4,
			Policy:  sched.PolicySpread,
			Arm:     c.arm,
			Horizon: 45 * sim.Second,
			Seed:    ctx.Seed + int64(c.count)*101,
			Trace:   uniformTrace(c.count, 4, 60, 150),
		})
	})
	ctx.Track(res)
	return res
}

// Gain reports C4P's aggregate-goodput gain over ECMP at job count index i.
func (r *CollisionSweepResult) Gain(i int) float64 {
	if r.ECMP[i].AggGoodput <= 0 {
		return 0
	}
	return r.C4P[i].AggGoodput/r.ECMP[i].AggGoodput - 1
}

func (r *CollisionSweepResult) String() string {
	var sb strings.Builder
	sb.WriteString("tenancy/collision-sweep — concurrent 4-node jobs, spread placement, 2:1 fabric\n")
	rows := make([][]string, len(r.JobCounts))
	for i, n := range r.JobCounts {
		rows[i] = []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", r.ECMP[i].AggGoodput),
			fmt.Sprintf("%.1f", r.C4P[i].AggGoodput),
			fmt.Sprintf("%+.1f%%", r.Gain(i)*100),
			fmt.Sprintf("%.3f", r.ECMP[i].Jain),
			fmt.Sprintf("%.3f", r.C4P[i].Jain),
			fmt.Sprintf("%.2f", r.ECMP[i].MeanStretch),
			fmt.Sprintf("%.2f", r.C4P[i].MeanStretch),
		}
	}
	sb.WriteString(metrics.Table([]string{
		"jobs", "ecmp", "c4p", "gain", "jain(ecmp)", "jain(c4p)", "stretch(ecmp)", "stretch(c4p)"}, rows))
	return sb.String()
}

// CheckShape asserts the multi-tenant half of the paper's claim: path
// steering pays off exactly when jobs share the fabric — C4P must beat
// pinned ECMP on aggregate goodput at every count >= 2.
func (r *CollisionSweepResult) CheckShape() error {
	for i, n := range r.JobCounts {
		for _, rr := range [2]RunResult{r.ECMP[i], r.C4P[i]} {
			if rr.Admitted != n {
				return fmt.Errorf("collision-sweep: %d jobs, arm %v admitted %d", n, rr.Arm, rr.Admitted)
			}
			for _, s := range rr.Jobs {
				if s.Iters == 0 {
					return fmt.Errorf("collision-sweep: %d jobs, arm %v: %s made no progress", n, rr.Arm, s.Name)
				}
			}
		}
		if n >= 2 && r.Gain(i) <= 0 {
			return fmt.Errorf("collision-sweep: %d jobs: C4P gain %.1f%%, want > 0 (steering must win under contention)",
				n, r.Gain(i)*100)
		}
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *CollisionSweepResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for i, n := range r.JobCounts {
		out[fmt.Sprintf("ecmp_goodput_%dj", n)] = r.ECMP[i].AggGoodput
		out[fmt.Sprintf("c4p_goodput_%dj", n)] = r.C4P[i].AggGoodput
	}
	out["gain_max_jobs"] = r.Gain(len(r.JobCounts) - 1)
	return out
}

// ChurnResult is the Poisson arrive/depart experiment.
type ChurnResult struct {
	TraceJobs int
	RunResult
}

// RunChurn replays a generated Poisson trace on the 1:1 fabric under C4P
// with packed placement: jobs arrive, queue when the cluster is full,
// depart mid-run, and the freed nodes immediately seat the queue head —
// the lifecycle churn that exposed the netsim admission/cancel bugs.
func RunChurn(ctx *scenario.Ctx) *ChurnResult {
	trace := GenTrace(ArrivalConfig{
		Window:           60 * sim.Second,
		MeanInterarrival: 6 * sim.Second,
		MeanDuration:     25 * sim.Second,
		Sizes:            []int{2, 4},
		MaxJobs:          12,
		ComputeMS:        150,
	}, ctx.Seed)
	res := &ChurnResult{
		TraceJobs: len(trace.Events),
		RunResult: Run(Config{
			Spines:  8,
			Policy:  sched.PolicyPacked,
			Arm:     c4p.C4PDynamic,
			Horizon: 90 * sim.Second,
			Seed:    ctx.Seed,
			Trace:   trace,
		}),
	}
	ctx.Track(res)
	return res
}

// Fired implements scenario.EventCounter.
func (r *ChurnResult) Fired() uint64 { return r.RunResult.Fired }

func (r *ChurnResult) String() string {
	return fmt.Sprintf("tenancy/churn — %d trace arrivals\n%s", r.TraceJobs, r.RunResult.String())
}

// CheckShape asserts the churn run exercised real multi-tenant lifecycle:
// several tenants admitted, several departures observed, everyone who got
// nodes made progress, and nobody was starved outright.
func (r *ChurnResult) CheckShape() error {
	if r.Admitted < 3 {
		return fmt.Errorf("churn: only %d jobs admitted, want >= 3", r.Admitted)
	}
	if r.Completed < 2 {
		return fmt.Errorf("churn: only %d departures before the horizon, want >= 2", r.Completed)
	}
	if r.Rejected > 0 {
		return fmt.Errorf("churn: %d jobs rejected on a fabric that fits every size", r.Rejected)
	}
	for _, s := range r.Jobs {
		if s.Admitted && s.Iters == 0 {
			return fmt.Errorf("churn: %s held nodes but made no progress", s.Name)
		}
	}
	if r.Jain <= 0 || r.Jain > 1+1e-9 {
		return fmt.Errorf("churn: Jain index %.3f out of (0,1]", r.Jain)
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *ChurnResult) Metrics() map[string]float64 {
	return map[string]float64{
		"admitted":     float64(r.Admitted),
		"completed":    float64(r.Completed),
		"agg_goodput":  r.AggGoodput,
		"jain":         r.Jain,
		"mean_stretch": r.MeanStretch,
	}
}

// PlacementCompareResult runs one fixed workload under each placement
// policy on the oversubscribed fabric.
type PlacementCompareResult struct {
	Policies []sched.Policy
	Runs     []RunResult
}

// Fired implements scenario.EventCounter.
func (r *PlacementCompareResult) Fired() uint64 {
	var n uint64
	for _, rr := range r.Runs {
		n += rr.Fired
	}
	return n
}

// RunPlacementCompare replays three concurrent 4-node jobs under every
// placement policy with pinned ECMP on the 2:1 fabric — the setting where
// placement alone decides how much traffic fights over the spines.
func RunPlacementCompare(ctx *scenario.Ctx) *PlacementCompareResult {
	res := &PlacementCompareResult{Policies: sched.Policies()}
	res.Runs = make([]RunResult, len(res.Policies))
	scenario.ForEach(len(res.Policies), ctx.Workers, func(i int) {
		res.Runs[i] = Run(Config{
			Spines:  4,
			Policy:  res.Policies[i],
			Arm:     c4p.Baseline,
			Horizon: 40 * sim.Second,
			Seed:    ctx.Seed + int64(i)*7,
			Trace:   uniformTrace(3, 4, 60, 150),
		})
	})
	ctx.Track(res)
	return res
}

func (r *PlacementCompareResult) String() string {
	var sb strings.Builder
	sb.WriteString("tenancy/placement-compare — 3 concurrent 4-node jobs, pinned ECMP, 2:1 fabric\n")
	rows := make([][]string, len(r.Policies))
	for i, rr := range r.Runs {
		rows[i] = []string{
			r.Policies[i].String(),
			fmt.Sprintf("%.1f", rr.AggGoodput),
			fmt.Sprintf("%.3f", rr.Jain),
			fmt.Sprintf("%.2f", rr.MeanStretch),
		}
	}
	sb.WriteString(metrics.Table([]string{"placement", "agg goodput", "jain", "mean stretch"}, rows))
	return sb.String()
}

// CheckShape asserts §III-B's premise: topology-aware packing beats the
// spine-crossing spread placement.
func (r *PlacementCompareResult) CheckShape() error {
	byPolicy := map[sched.Policy]RunResult{}
	for i, p := range r.Policies {
		byPolicy[p] = r.Runs[i]
		if r.Runs[i].Admitted != 3 {
			return fmt.Errorf("placement-compare: %v admitted %d jobs, want 3", p, r.Runs[i].Admitted)
		}
	}
	packed, spread := byPolicy[sched.PolicyPacked], byPolicy[sched.PolicySpread]
	if packed.AggGoodput <= spread.AggGoodput {
		return fmt.Errorf("placement-compare: packed %.1f <= spread %.1f samples/s, want packing to win",
			packed.AggGoodput, spread.AggGoodput)
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *PlacementCompareResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for i, p := range r.Policies {
		out[p.String()+"_goodput"] = r.Runs[i].AggGoodput
	}
	return out
}
