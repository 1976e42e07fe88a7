package harness

import (
	"fmt"
	"sort"
	"strings"

	"c4/internal/c4p"
	"c4/internal/job"
	"c4/internal/metrics"
	"c4/internal/plan"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/workload"
)

// This file implements and registers the plan/* scenario family: the
// training-iteration compiler (internal/plan) swept over parallelization
// strategies on the simulated fabric. The sweeps probe the paper's Fig 14
// precondition from the traffic side — C4P's goodput gain over ECMP
// tracks the exposed-communication share the strategy leaves on the
// fabric — and the comm/compute-overlap machinery (gradient bucketing)
// that decides how much of the DP volume is exposed at all. Their
// aggregate numbers feed the bench-regression guard.

// PlanArm is one (strategy, provider) measurement: throughput plus the
// compiled schedule's iteration breakdown.
type PlanArm struct {
	SamplesPerSec float64
	AvgIter       sim.Time
	AvgCompute    sim.Time
	AvgBubble     sim.Time
	AvgExposed    sim.Time
	ExposedShare  float64
	Fired         uint64
}

// planSpec builds a sweep workload: the model at TP8 with the given
// pipeline/data split over the testbed, spread placement so ring and
// pipeline edges cross the spine layer.
func planSpec(m workload.Model, par workload.Parallelism, ga int, cpmb sim.Time) workload.JobSpec {
	par.TP, par.GA = 8, ga
	par = par.Normalize()
	return workload.JobSpec{
		Name:                 fmt.Sprintf("plan-%s", par),
		Model:                m,
		Par:                  par,
		Nodes:                InterleavedNodes(par.PP * par.DP),
		ComputePerMicroBatch: cpmb,
		ComputeJitter:        0.02,
		SamplesPerIter:       64,
	}
}

// runPlanJob executes one job under one provider and returns its arm.
func runPlanJob(kind c4p.ProviderKind, spec workload.JobSpec, opts plan.Options, seed int64, iters int) PlanArm {
	e := NewEnv(topo.MultiJobTestbed(8))
	j, err := job.New(job.Config{
		Engine: e.Eng, Net: e.Net,
		Provider: e.NewProvider(kind, seed),
		Spec:     spec,
		Plan:     opts,
		Rand:     sim.NewRand(seed),
		// Several QPs per port, as in Fig 14: hash collisions smooth out
		// and the ECMP baseline degrades realistically, not catastrophically.
		QPsPerConn: 8,
	})
	if err != nil {
		panic(fmt.Sprintf("plan scenario: %v", err))
	}
	var rep job.Report
	j.Run(iters, func(r job.Report) { rep = r })
	e.Eng.Run()
	return PlanArm{
		SamplesPerSec: rep.SamplesPerSec,
		AvgIter:       rep.AvgIter,
		AvgCompute:    rep.AvgCompute,
		AvgBubble:     rep.AvgBubble,
		AvgExposed:    rep.AvgExposed,
		ExposedShare:  rep.ExposedShare(),
		Fired:         e.Eng.Fired(),
	}
}

// ---------------------------------------------------------------------------
// plan/strategy-sweep

// PlanStrategySweep compares ECMP and C4P across DP×PP splits of a fixed
// 16-node world: PP1/DP16 leaves the largest gradient volume exposed,
// PP8/DP2 dilutes it behind 8 stages — the Fig 14 spectrum as one sweep.
type PlanStrategySweep struct {
	Strategies []workload.Parallelism
	ECMP       []PlanArm
	C4P        []PlanArm
}

// Fired implements scenario.EventCounter.
func (r *PlanStrategySweep) Fired() uint64 {
	var n uint64
	for i := range r.ECMP {
		n += r.ECMP[i].Fired + r.C4P[i].Fired
	}
	return n
}

// Delta is C4P's goodput gain over ECMP for strategy i.
func (r *PlanStrategySweep) Delta(i int) float64 {
	return metrics.Ratio(r.C4P[i].SamplesPerSec, r.ECMP[i].SamplesPerSec) - 1
}

// RunPlanStrategySweep executes the sweep (both arms per strategy).
func RunPlanStrategySweep(ctx *scenario.Ctx) *PlanStrategySweep {
	res := &PlanStrategySweep{}
	for _, pp := range []int{1, 2, 4, 8} {
		res.Strategies = append(res.Strategies, workload.Parallelism{TP: 8, PP: pp, DP: 16 / pp, GA: 8})
	}
	res.ECMP = make([]PlanArm, len(res.Strategies))
	res.C4P = make([]PlanArm, len(res.Strategies))
	type cell struct {
		kind c4p.ProviderKind
		out  *PlanArm
		spec workload.JobSpec
		seed int64
	}
	var cells []cell
	for i, par := range res.Strategies {
		// 70 ms micro-batches: one optimizer step's compute is Fig 14
		// Job1's 550 ms, but split over GA=8, so the pure-DP end of the
		// sweep leaves a Job1-like ≈30% of the iteration exposed while
		// the PP8 end dilutes it to a few percent.
		spec := planSpec(workload.GPT22B, par, par.GA, 70*sim.Millisecond)
		cells = append(cells,
			cell{c4p.Baseline, &res.ECMP[i], spec, ctx.Seed + int64(par.PP)*13},
			cell{c4p.C4PStatic, &res.C4P[i], spec, ctx.Seed + int64(par.PP)*13})
	}
	scenario.ForEach(len(cells), ctx.Workers, func(i int) {
		c := cells[i]
		*c.out = runPlanJob(c.kind, c.spec, plan.Options{}, c.seed, 5)
	})
	ctx.Track(res)
	return res
}

func (r *PlanStrategySweep) String() string {
	var sb strings.Builder
	sb.WriteString("plan/strategy-sweep — GPT-22B, 16 nodes, DP×PP split, GA8, overlap off\n")
	rows := make([][]string, len(r.Strategies))
	for i, par := range r.Strategies {
		rows[i] = []string{
			par.String(),
			fmt.Sprintf("%.1f", r.ECMP[i].SamplesPerSec),
			fmt.Sprintf("%.1f", r.C4P[i].SamplesPerSec),
			pct(r.Delta(i)),
			fmt.Sprintf("%.1f%%", r.ECMP[i].ExposedShare*100),
			fmt.Sprintf("%.2fs", r.C4P[i].AvgBubble.Seconds()),
		}
	}
	sb.WriteString(metrics.Table(
		[]string{"strategy", "ecmp", "c4p", "delta", "exposed(ecmp)", "bubble(c4p)"}, rows))
	return sb.String()
}

// CheckShape asserts the paper's precondition as measured by the
// compiler: the exposed-communication share shrinks as PP takes over,
// and C4P's goodput delta over ECMP grows with that share — traffic
// engineering pays exactly where communication is exposed.
func (r *PlanStrategySweep) CheckShape() error {
	n := len(r.Strategies)
	for i := range r.Strategies {
		for _, arm := range [2]PlanArm{r.ECMP[i], r.C4P[i]} {
			if arm.SamplesPerSec <= 0 {
				return fmt.Errorf("strategy-sweep: %v made no progress", r.Strategies[i])
			}
		}
	}
	// Share falls monotonically from the pure-DP end to the deep-PP end.
	for i := 1; i < n; i++ {
		if r.ECMP[i].ExposedShare >= r.ECMP[i-1].ExposedShare {
			return fmt.Errorf("strategy-sweep: exposed share %v (%.1f%%) not below %v (%.1f%%)",
				r.Strategies[i], r.ECMP[i].ExposedShare*100,
				r.Strategies[i-1], r.ECMP[i-1].ExposedShare*100)
		}
	}
	// The C4P-over-ECMP delta grows monotonically with exposed share
	// (tiny slack for collision luck at the near-zero-comm end).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return r.ECMP[idx[a]].ExposedShare < r.ECMP[idx[b]].ExposedShare
	})
	const slack = 0.02
	for k := 1; k < n; k++ {
		lo, hi := idx[k-1], idx[k]
		if r.Delta(hi) < r.Delta(lo)-slack {
			return fmt.Errorf("strategy-sweep: delta %s at share %.1f%% below delta %s at share %.1f%%",
				pct(r.Delta(hi)), r.ECMP[hi].ExposedShare*100,
				pct(r.Delta(lo)), r.ECMP[lo].ExposedShare*100)
		}
	}
	top, bottom := idx[n-1], idx[0]
	if r.Delta(top) < r.Delta(bottom)+0.05 {
		return fmt.Errorf("strategy-sweep: delta spans %s -> %s, want meaningful growth with share",
			pct(r.Delta(bottom)), pct(r.Delta(top)))
	}
	// Deeper pipelines must show a bigger bubble.
	if r.C4P[n-1].AvgBubble <= r.C4P[0].AvgBubble {
		return fmt.Errorf("strategy-sweep: bubble %v at PP8 not above %v at PP1",
			r.C4P[n-1].AvgBubble, r.C4P[0].AvgBubble)
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *PlanStrategySweep) Metrics() map[string]float64 {
	out := map[string]float64{}
	for i, par := range r.Strategies {
		key := fmt.Sprintf("pp%d", par.PP)
		out["ecmp_sps_"+key] = r.ECMP[i].SamplesPerSec
		out["c4p_sps_"+key] = r.C4P[i].SamplesPerSec
		out["share_"+key] = r.ECMP[i].ExposedShare
	}
	return out
}

// ---------------------------------------------------------------------------
// plan/bucket-sweep

// PlanBucketSweep measures the overlap benefit curve: the same strategy
// with the DP gradient cut into ever-smaller buckets, each launched as
// the final backward pass produces it.
type PlanBucketSweep struct {
	BucketsMiB []float64 // 0 = single bucket
	Arms       []PlanArm
}

// Fired implements scenario.EventCounter.
func (r *PlanBucketSweep) Fired() uint64 {
	var n uint64
	for _, a := range r.Arms {
		n += a.Fired
	}
	return n
}

// RunPlanBucketSweep executes the sweep on the C4P arm (planned paths,
// so the curve is the overlap mechanism alone, not collision luck).
func RunPlanBucketSweep(ctx *scenario.Ctx) *PlanBucketSweep {
	res := &PlanBucketSweep{BucketsMiB: []float64{0, 2048, 512, 128}}
	res.Arms = make([]PlanArm, len(res.BucketsMiB))
	// GPT-175B gradients against 550 ms micro-batches: the per-stage sync
	// takes roughly twice a backward slot, so only part of it can ever
	// hide — the bucket size decides how much, which is the curve.
	spec := planSpec(workload.GPT175B, workload.Parallelism{PP: 2, DP: 4}, 4, 550*sim.Millisecond)
	scenario.ForEach(len(res.BucketsMiB), ctx.Workers, func(i int) {
		res.Arms[i] = runPlanJob(c4p.C4PStatic, spec, plan.Options{
			Overlap:     true,
			BucketBytes: res.BucketsMiB[i] * (1 << 20),
		}, ctx.Seed, 5)
	})
	ctx.Track(res)
	return res
}

func (r *PlanBucketSweep) String() string {
	var sb strings.Builder
	sb.WriteString("plan/bucket-sweep — GPT-175B TP8/PP2/DP4/GA4, overlap on, C4P\n")
	rows := make([][]string, len(r.Arms))
	for i, a := range r.Arms {
		label := "whole gradient"
		if r.BucketsMiB[i] > 0 {
			label = fmt.Sprintf("%.0f MiB", r.BucketsMiB[i])
		}
		rows[i] = []string{
			label,
			fmt.Sprintf("%.2fs", a.AvgExposed.Seconds()),
			fmt.Sprintf("%.2fs", a.AvgIter.Seconds()),
			fmt.Sprintf("%.1f", a.SamplesPerSec),
		}
	}
	sb.WriteString(metrics.Table([]string{"bucket", "exposed", "iter", "samples/s"}, rows))
	return sb.String()
}

// CheckShape asserts the overlap benefit curve and its cost: smaller
// buckets can only start syncing earlier, so exposed communication must
// fall monotonically with a strict win at the small end — but the early
// sync traffic contends with the pipeline drain's gradient transfers, so
// throughput peaks at some bucketed arm rather than improving forever.
// The tuning lesson is that the curve has two regimes, not one.
func (r *PlanBucketSweep) CheckShape() error {
	for i, a := range r.Arms {
		if a.SamplesPerSec <= 0 {
			return fmt.Errorf("bucket-sweep: arm %d made no progress", i)
		}
		if i > 0 && a.AvgExposed > r.Arms[i-1].AvgExposed {
			return fmt.Errorf("bucket-sweep: exposed %v at %.0f MiB above %v at the coarser bucket",
				a.AvgExposed, r.BucketsMiB[i], r.Arms[i-1].AvgExposed)
		}
	}
	first, last := r.Arms[0], r.Arms[len(r.Arms)-1]
	if last.AvgExposed >= first.AvgExposed {
		return fmt.Errorf("bucket-sweep: smallest bucket exposed %v, want strictly below single-bucket %v",
			last.AvgExposed, first.AvgExposed)
	}
	best := 0
	for i, a := range r.Arms {
		if a.SamplesPerSec > r.Arms[best].SamplesPerSec {
			best = i
		}
	}
	if best == 0 {
		return fmt.Errorf("bucket-sweep: no bucketed arm beats the whole-gradient %.1f samples/s",
			first.SamplesPerSec)
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *PlanBucketSweep) Metrics() map[string]float64 {
	out := map[string]float64{}
	for i, mib := range r.BucketsMiB {
		key := "whole"
		if mib > 0 {
			key = fmt.Sprintf("%.0fmib", mib)
		}
		out["exposed_s_"+key] = r.Arms[i].AvgExposed.Seconds()
		out["sps_"+key] = r.Arms[i].SamplesPerSec
	}
	return out
}

// ---------------------------------------------------------------------------
// plan/overlap-ablation

// PlanOverlapAblation is the on/off comparison at a fixed strategy and
// bucket size: what DDP-style comm/compute overlap is worth.
type PlanOverlapAblation struct {
	On, Off PlanArm
}

// Fired implements scenario.EventCounter.
func (r *PlanOverlapAblation) Fired() uint64 { return r.On.Fired + r.Off.Fired }

// HiddenFrac is the share of formerly exposed communication that overlap
// hides.
func (r *PlanOverlapAblation) HiddenFrac() float64 {
	if r.Off.AvgExposed <= 0 {
		return 0
	}
	return 1 - float64(r.On.AvgExposed)/float64(r.Off.AvgExposed)
}

// RunPlanOverlapAblation executes both arms.
func RunPlanOverlapAblation(ctx *scenario.Ctx) *PlanOverlapAblation {
	res := &PlanOverlapAblation{}
	spec := planSpec(workload.GPT175B, workload.Parallelism{PP: 2, DP: 4}, 4, 550*sim.Millisecond)
	arms := []*PlanArm{&res.Off, &res.On}
	scenario.ForEach(len(arms), ctx.Workers, func(i int) {
		*arms[i] = runPlanJob(c4p.C4PStatic, spec, plan.Options{
			Overlap:     i == 1,
			BucketBytes: 256 << 20,
		}, ctx.Seed, 5)
	})
	ctx.Track(res)
	return res
}

func (r *PlanOverlapAblation) String() string {
	var sb strings.Builder
	sb.WriteString("plan/overlap-ablation — GPT-175B TP8/PP2/DP4/GA4, 256 MiB buckets, C4P\n")
	rows := [][]string{
		{"off", fmt.Sprintf("%.2fs", r.Off.AvgExposed.Seconds()),
			fmt.Sprintf("%.2fs", r.Off.AvgIter.Seconds()), fmt.Sprintf("%.1f", r.Off.SamplesPerSec)},
		{"on", fmt.Sprintf("%.2fs", r.On.AvgExposed.Seconds()),
			fmt.Sprintf("%.2fs", r.On.AvgIter.Seconds()), fmt.Sprintf("%.1f", r.On.SamplesPerSec)},
	}
	sb.WriteString(metrics.Table([]string{"overlap", "exposed", "iter", "samples/s"}, rows))
	fmt.Fprintf(&sb, "overlap hides %.0f%% of exposed communication\n", r.HiddenFrac()*100)
	return sb.String()
}

// CheckShape asserts overlap's whole point: launching buckets inside the
// backward pass strictly reduces exposed communication and iteration
// time.
func (r *PlanOverlapAblation) CheckShape() error {
	if r.On.SamplesPerSec <= 0 || r.Off.SamplesPerSec <= 0 {
		return fmt.Errorf("overlap-ablation: an arm made no progress")
	}
	if r.On.AvgExposed >= r.Off.AvgExposed {
		return fmt.Errorf("overlap-ablation: exposed %v with overlap, want strictly below %v without",
			r.On.AvgExposed, r.Off.AvgExposed)
	}
	if r.On.SamplesPerSec <= r.Off.SamplesPerSec {
		return fmt.Errorf("overlap-ablation: %.1f samples/s with overlap, want above %.1f without",
			r.On.SamplesPerSec, r.Off.SamplesPerSec)
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *PlanOverlapAblation) Metrics() map[string]float64 {
	return map[string]float64{
		"exposed_on_s":  r.On.AvgExposed.Seconds(),
		"exposed_off_s": r.Off.AvgExposed.Seconds(),
		"sps_on":        r.On.SamplesPerSec,
		"sps_off":       r.Off.SamplesPerSec,
		"hidden_frac":   r.HiddenFrac(),
	}
}

// registerPlan is invoked from the main registration init (register.go)
// so the plan family lists after the online family.
func registerPlan() {
	reg := scenario.Register

	reg(scenario.Scenario{
		Name: "plan/strategy-sweep", Group: "plan", Slow: true,
		Description: "DP×PP split sweep at 16 nodes: ECMP vs C4P, exposed-comm share vs goodput delta",
		Paper:       "C4's gains track the communication:compute ratio; GA/PP dilution removes them (Fig 14)",
		Params:      map[string]string{"world": "16 nodes", "strategies": "pp1,pp2,pp4,pp8", "ga": "8"},
		Run:         func(c *scenario.Ctx) scenario.Result { return RunPlanStrategySweep(c) },
		Summarize: func(r scenario.Result) string {
			s := r.(*PlanStrategySweep)
			n := len(s.Strategies) - 1
			return fmt.Sprintf("delta %s at %.0f%% share -> %s at %.0f%% share",
				pct(s.Delta(0)), s.ECMP[0].ExposedShare*100,
				pct(s.Delta(n)), s.ECMP[n].ExposedShare*100)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return r.(*PlanStrategySweep).Metrics()
		},
	})
	reg(scenario.Scenario{
		Name: "plan/bucket-sweep", Group: "plan",
		Description: "gradient bucket-size sweep with overlap on: exposed comm falls, throughput peaks interior",
		Paper:       "bucketed sync launched inside backward hides DP volume behind compute — until it contends with the pipeline drain",
		Params:      map[string]string{"strategy": "gpt175b tp8/pp2/dp4/ga4", "buckets": "whole,2048,512,128 MiB"},
		Run:         func(c *scenario.Ctx) scenario.Result { return RunPlanBucketSweep(c) },
		Summarize: func(r scenario.Result) string {
			s := r.(*PlanBucketSweep)
			last := len(s.Arms) - 1
			return fmt.Sprintf("exposed %.2fs whole -> %.2fs at %.0f MiB",
				s.Arms[0].AvgExposed.Seconds(), s.Arms[last].AvgExposed.Seconds(), s.BucketsMiB[last])
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return r.(*PlanBucketSweep).Metrics()
		},
	})
	reg(scenario.Scenario{
		Name: "plan/overlap-ablation", Group: "plan",
		Description: "comm/compute overlap on vs off at fixed strategy and bucket size",
		Paper:       "overlap strictly reduces exposed communication and iteration time",
		Params:      map[string]string{"strategy": "gpt175b tp8/pp2/dp4/ga4", "bucket": "256 MiB"},
		Run:         func(c *scenario.Ctx) scenario.Result { return RunPlanOverlapAblation(c) },
		Summarize: func(r scenario.Result) string {
			s := r.(*PlanOverlapAblation)
			return fmt.Sprintf("exposed %.2fs -> %.2fs (%.0f%% hidden)",
				s.Off.AvgExposed.Seconds(), s.On.AvgExposed.Seconds(), s.HiddenFrac()*100)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return r.(*PlanOverlapAblation).Metrics()
		},
	})
}
