package harness

import (
	"fmt"
	"strings"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/steering"
	"c4/internal/topo"
)

// This file holds the ablation studies DESIGN.md commits to: each isolates
// one design choice the paper makes and shows what breaks without it.

// PlaneRuleAblation isolates C4P's dual-port constraint ("forbid paths
// from left ports to right, and vice versa", §III-B): full C4P versus C4P
// with everything except the plane rule.
type PlaneRuleAblation struct {
	WithRule    float64 // mean busbw, Gbps
	WithoutRule float64
}

// runPlaneRuleAblation measures an 8-node allreduce under both variants.
func runPlaneRuleAblation(ctx *scenario.Ctx) PlaneRuleAblation {
	seed := ctx.Seed
	run := func(disable bool) float64 {
		var total float64
		const draws = 5
		for d := int64(0); d < draws; d++ {
			e := newEnv(ctx, topo.MultiJobTestbed(8))
			m := c4p.NewMaster(e.Topo, c4p.Static, sim.NewRand(seed+d))
			m.DisablePlaneRule = disable
			b, err := StartBench(e, BenchConfig{
				Nodes: InterleavedNodes(8), Bytes: 512 << 20, Iters: 4,
				Provider: m, QPsPerConn: 2, Seed: seed + d,
			})
			if err != nil {
				panic(err)
			}
			e.Eng.Run()
			total += b.MeanBusGbps()
		}
		return total / draws
	}
	return PlaneRuleAblation{WithRule: run(false), WithoutRule: run(true)}
}

// String renders the comparison.
func (r PlaneRuleAblation) String() string {
	return fmt.Sprintf("Ablation — C4P dual-port plane rule\n  with rule:    %.1f Gbps\n  without rule: %.1f Gbps (%s)\n",
		r.WithRule, r.WithoutRule, pct(r.WithoutRule/r.WithRule-1))
}

// CheckShape: dropping the rule must reintroduce the Fig 9 rx-imbalance
// penalty even though spine placement stays perfectly balanced.
func (r PlaneRuleAblation) CheckShape() error {
	if r.WithRule < 330 {
		return fmt.Errorf("plane ablation: full C4P at %.1f, want ≈360", r.WithRule)
	}
	if r.WithoutRule > r.WithRule*0.9 {
		return fmt.Errorf("plane ablation: no penalty without the rule (%.1f vs %.1f)",
			r.WithoutRule, r.WithRule)
	}
	return nil
}

// AlgoCrossover compares ring and tree allreduce across message sizes.
// Ring is bandwidth-optimal but pays per-hop latency 2(M-1) times; a
// binary tree pays it ~2·log2(M) times at the cost of link bandwidth —
// which is why ACCL (Fig 6) keeps both algorithm families.
type AlgoCrossover struct {
	SizesMiB []float64
	RingSec  []float64
	TreeSec  []float64
}

// runAlgoCrossover sweeps message sizes on an 8-node communicator with
// chunked (stepwise) ring execution so per-step latency is charged.
func runAlgoCrossover(ctx *scenario.Ctx) AlgoCrossover {
	seed := ctx.Seed
	res := AlgoCrossover{}
	for _, mib := range []float64{0.25, 1, 4, 16, 64, 256} {
		res.SizesMiB = append(res.SizesMiB, mib)
		run := func(tree bool) float64 {
			e := newEnv(ctx, topo.MultiJobTestbed(8))
			comm, err := accl.NewCommunicator(accl.Config{
				Engine: e.Eng, Net: e.Net,
				Provider: e.NewProvider(c4p.C4PStatic, seed),
				Rails:    []int{0},
				Stepwise: !tree,
				Rand:     sim.NewRand(seed),
			}, InterleavedNodes(8))
			if err != nil {
				panic(err)
			}
			var dur sim.Time
			done := func(r accl.Result) { dur = r.End - r.Start }
			if tree {
				comm.AllReduceTree(mib*(1<<20), nil, done)
			} else {
				comm.AllReduce(mib*(1<<20), nil, done)
			}
			e.Eng.Run()
			return dur.Seconds()
		}
		res.RingSec = append(res.RingSec, run(false))
		res.TreeSec = append(res.TreeSec, run(true))
	}
	return res
}

// String renders the sweep.
func (r AlgoCrossover) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — ring vs tree allreduce (8 nodes, chunked ring)\n")
	rows := make([][]string, len(r.SizesMiB))
	for i := range r.SizesMiB {
		winner := "ring"
		if r.TreeSec[i] < r.RingSec[i] {
			winner = "tree"
		}
		rows[i] = []string{
			fmt.Sprintf("%.2f MiB", r.SizesMiB[i]),
			fmt.Sprintf("%.3gms", r.RingSec[i]*1e3),
			fmt.Sprintf("%.3gms", r.TreeSec[i]*1e3),
			winner,
		}
	}
	sb.WriteString(metrics.Table([]string{"size", "ring", "tree", "winner"}, rows))
	return sb.String()
}

// CheckShape: tree wins at the small end (latency-bound), ring at the
// large end (bandwidth-bound).
func (r AlgoCrossover) CheckShape() error {
	n := len(r.SizesMiB)
	if r.TreeSec[0] >= r.RingSec[0] {
		return fmt.Errorf("algo ablation: tree should win at %.2f MiB (ring %.4fs, tree %.4fs)",
			r.SizesMiB[0], r.RingSec[0], r.TreeSec[0])
	}
	if r.RingSec[n-1] >= r.TreeSec[n-1] {
		return fmt.Errorf("algo ablation: ring should win at %.0f MiB (ring %.4fs, tree %.4fs)",
			r.SizesMiB[n-1], r.RingSec[n-1], r.TreeSec[n-1])
	}
	return nil
}

// CkptSweep shows why the deployment moved to 10-minute checkpoints: the
// post-checkpoint share of downtime is linear in the interval, and with
// C4D having shrunk everything else it dominates total downtime.
type CkptSweep struct {
	IntervalsMin []float64
	PostCkptPct  []float64
	TotalPct     []float64
}

// runCkptSweep Monte-Carlos the December regime at varying intervals.
func runCkptSweep(ctx *scenario.Ctx) CkptSweep {
	seed := ctx.Seed
	res := CkptSweep{}
	for _, minutes := range []float64{5, 10, 30, 60, 160} {
		reg := steering.C4DRegime()
		reg.CkptInterval = sim.FromSeconds(minutes * 60)
		var post, total float64
		const months = 6
		for m := 0; m < months; m++ {
			b := steering.SimulateAvailability(steering.AvailabilityConfig{
				Rand: sim.NewRand(seed + int64(m)), Nodes: 300, Regime: reg,
			})
			post += b.PostCkpt / months
			total += b.Total() / months
		}
		res.IntervalsMin = append(res.IntervalsMin, minutes)
		res.PostCkptPct = append(res.PostCkptPct, post*100)
		res.TotalPct = append(res.TotalPct, total*100)
	}
	return res
}

// String renders the sweep.
func (r CkptSweep) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — checkpoint interval (Dec-2023 regime)\n")
	rows := make([][]string, len(r.IntervalsMin))
	for i := range r.IntervalsMin {
		rows[i] = []string{
			fmt.Sprintf("%.0f min", r.IntervalsMin[i]),
			fmt.Sprintf("%.2f%%", r.PostCkptPct[i]),
			fmt.Sprintf("%.2f%%", r.TotalPct[i]),
		}
	}
	sb.WriteString(metrics.Table([]string{"interval", "post-ckpt", "total downtime"}, rows))
	return sb.String()
}

// CheckShape: post-checkpoint loss grows monotonically with the interval
// and dominates total downtime at the June-style 160-minute setting.
func (r CkptSweep) CheckShape() error {
	for i := 1; i < len(r.PostCkptPct); i++ {
		if r.PostCkptPct[i] < r.PostCkptPct[i-1] {
			return fmt.Errorf("ckpt sweep: post-ckpt not monotone: %v", r.PostCkptPct)
		}
	}
	last := len(r.PostCkptPct) - 1
	if r.PostCkptPct[last] < r.TotalPct[last]/2 {
		return fmt.Errorf("ckpt sweep: at %v min post-ckpt (%.2f%%) should dominate total (%.2f%%)",
			r.IntervalsMin[last], r.PostCkptPct[last], r.TotalPct[last])
	}
	return nil
}

// KappaSweep evaluates C4D's comm-slow threshold: too low and healthy
// jitter raises false alarms; too high and mild degradations escape. The
// matrices are synthetic full-mesh bandwidth maps with multiplicative
// noise, plus an injected row fault.
type KappaSweep struct {
	Kappas        []float64
	FalsePositive []float64 // rate on healthy noisy matrices
	Detected      []float64 // rate on matrices with a 3x row fault
}

// runKappaSweep Monte-Carlos both rates per threshold.
func runKappaSweep(ctx *scenario.Ctx) KappaSweep {
	r := sim.NewRand(ctx.Seed)
	res := KappaSweep{}
	const trials = 200
	const n = 8
	genHealthy := func() map[[2]int]float64 {
		bw := map[[2]int]float64{}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					bw[[2]int{s, d}] = 360 * (1 + 0.10*r.NormFloat64())
				}
			}
		}
		return bw
	}
	for _, kappa := range []float64{1.2, 1.5, 2, 3, 5} {
		fp, det := 0, 0
		for i := 0; i < trials; i++ {
			if len(c4d.AnalyzeDelayMatrix(genHealthy(), kappa, 0.6)) > 0 {
				fp++
			}
			bad := genHealthy()
			victim := r.Intn(n)
			for d := 0; d < n; d++ {
				if d != victim {
					bad[[2]int{victim, d}] /= 3
				}
			}
			findings := c4d.AnalyzeDelayMatrix(bad, kappa, 0.6)
			for _, f := range findings {
				if f.Scope == c4d.ScopeNodeTx && f.Src == victim {
					det++
					break
				}
			}
		}
		res.Kappas = append(res.Kappas, kappa)
		res.FalsePositive = append(res.FalsePositive, float64(fp)/trials)
		res.Detected = append(res.Detected, float64(det)/trials)
	}
	return res
}

// String renders the sweep.
func (r KappaSweep) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — C4D comm-slow threshold κ (10% jitter, 3x row fault)\n")
	rows := make([][]string, len(r.Kappas))
	for i := range r.Kappas {
		rows[i] = []string{
			fmt.Sprintf("κ=%.1f", r.Kappas[i]),
			fmt.Sprintf("%.1f%%", r.FalsePositive[i]*100),
			fmt.Sprintf("%.1f%%", r.Detected[i]*100),
		}
	}
	sb.WriteString(metrics.Table([]string{"threshold", "false alarms", "detection"}, rows))
	return sb.String()
}

// CheckShape: the default κ=2 must detect the 3x fault essentially always
// with essentially no false alarms; κ=1.2 must be noisy; κ=5 must miss.
func (r KappaSweep) CheckShape() error {
	find := func(k float64) int {
		for i, v := range r.Kappas {
			if v == k {
				return i
			}
		}
		return -1
	}
	def := find(2)
	if r.FalsePositive[def] > 0.02 {
		return fmt.Errorf("kappa sweep: κ=2 false-alarm rate %.2f, want ≈0", r.FalsePositive[def])
	}
	if r.Detected[def] < 0.95 {
		return fmt.Errorf("kappa sweep: κ=2 detection %.2f, want ≈1", r.Detected[def])
	}
	if lo := find(1.2); r.FalsePositive[lo] < 0.5 {
		return fmt.Errorf("kappa sweep: κ=1.2 should be noisy, FP=%.2f", r.FalsePositive[lo])
	}
	if hi := find(5); r.Detected[hi] > 0.1 {
		return fmt.Errorf("kappa sweep: κ=5 should miss the 3x fault, det=%.2f", r.Detected[hi])
	}
	return nil
}

// QPSweep shows how the number of QPs per connection smooths ECMP: more
// hash draws per bond mean fewer catastrophic collisions — the knob that
// separates our harsh 2-QP microbenchmark baseline from the production
// jobs of Fig 14.
type QPSweep struct {
	QPs      []int
	Baseline []float64 // mean busbw across ECMP draws
}

// runQPSweep measures a 8-node baseline allreduce at 1..8 QPs/connection.
func runQPSweep(ctx *scenario.Ctx) QPSweep {
	seed := ctx.Seed
	res := QPSweep{}
	for _, qps := range []int{2, 4, 8, 16} {
		var total float64
		const draws = 6
		for d := int64(0); d < draws; d++ {
			e := newEnv(ctx, topo.MultiJobTestbed(8))
			b, err := StartBench(e, BenchConfig{
				Nodes: InterleavedNodes(8), Bytes: 256 << 20, Iters: 3,
				Provider: e.NewProvider(c4p.Baseline, seed+100*d), QPsPerConn: qps, Seed: seed + d,
			})
			if err != nil {
				panic(err)
			}
			e.Eng.Run()
			total += b.MeanBusGbps()
		}
		res.QPs = append(res.QPs, qps)
		res.Baseline = append(res.Baseline, total/draws)
	}
	return res
}

// String renders the sweep.
func (r QPSweep) String() string {
	var sb strings.Builder
	sb.WriteString("Ablation — ECMP baseline vs QPs per connection\n")
	rows := make([][]string, len(r.QPs))
	for i := range r.QPs {
		rows[i] = []string{fmt.Sprintf("%d QPs", r.QPs[i]), fmt.Sprintf("%.1f Gbps", r.Baseline[i])}
	}
	sb.WriteString(metrics.Table([]string{"config", "baseline busbw"}, rows))
	return sb.String()
}

// CheckShape: more QPs must not hurt, and 16 QPs must clearly beat 2.
func (r QPSweep) CheckShape() error {
	first, last := r.Baseline[0], r.Baseline[len(r.Baseline)-1]
	if last < first*1.1 {
		return fmt.Errorf("qp sweep: smoothing absent (%.1f at %d QPs vs %.1f at %d)",
			first, r.QPs[0], last, r.QPs[len(r.QPs)-1])
	}
	return nil
}
