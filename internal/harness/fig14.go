package harness

import (
	"fmt"
	"strings"

	"c4/internal/c4p"
	"c4/internal/job"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/workload"
)

// Fig14Result reproduces Fig 14: end-to-end throughput of three real-life
// training jobs with and without C4. Job1 (GPT-22B, TP8×DP16) and Job2
// (Llama-7B, ZeRO DP16) are communication-heavy and gain ≈15%; Job3
// (GPT-175B, TP8×PP8×DP2 with GA=16) amortizes communication over 16
// micro-batches and gains almost nothing — the paper's key lesson about
// when traffic engineering pays.
type Fig14Result struct {
	Jobs     []string
	Baseline []float64 // samples/sec
	C4P      []float64
	Gains    []float64
}

// RunFig14 measures each job alone on the testbed under both providers,
// averaging the baseline over ECMP draws.
func RunFig14(seed int64) Fig14Result { return runFig14(scenario.NewCtx(seed)) }

func runFig14(ctx *scenario.Ctx) Fig14Result {
	seed := ctx.Seed
	res := Fig14Result{}
	specs := workload.Fig14Jobs(InterleavedNodes(16))
	for _, spec := range specs {
		res.Jobs = append(res.Jobs, fmt.Sprintf("%s (%s, %s)", spec.Name, spec.Model.Name, spec.Par))
		run := func(kind c4p.ProviderKind, s int64) float64 {
			e := newEnv(ctx, topo.MultiJobTestbed(8))
			j, err := job.New(job.Config{
				Engine: e.Eng, Net: e.Net,
				Provider: e.NewProvider(kind, s),
				Spec:     spec,
				Rand:     sim.NewRand(s),
				// Production CCLs open several QPs per port, smoothing
				// hash collisions; without this the baseline degrades far
				// more than the paper's ~15%.
				QPsPerConn: 8,
			})
			if err != nil {
				panic(err)
			}
			var rep job.Report
			j.Run(6, func(r job.Report) { rep = r })
			e.Eng.Run()
			return rep.SamplesPerSec
		}
		const draws = 3
		var base float64
		for d := int64(0); d < draws; d++ {
			base += run(c4p.Baseline, seed+13*d)
		}
		base /= draws
		c4 := run(c4p.C4PStatic, seed)
		res.Baseline = append(res.Baseline, base)
		res.C4P = append(res.C4P, c4)
		res.Gains = append(res.Gains, c4/base-1)
	}
	return res
}

// String renders the comparison.
func (r Fig14Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 14 — real-life job throughput (samples/sec)\n")
	rows := make([][]string, len(r.Jobs))
	for i := range r.Jobs {
		rows[i] = []string{
			r.Jobs[i],
			fmt.Sprintf("%.1f", r.Baseline[i]),
			fmt.Sprintf("%.1f", r.C4P[i]),
			pct(r.Gains[i]),
		}
	}
	sb.WriteString(metrics.Table([]string{"job", "baseline", "C4", "gain"}, rows))
	return sb.String()
}

// CheckShape validates the paper's claims: meaningful gains for the
// communication-bound jobs (paper: +15.95% and +14.1%), negligible gain
// for the GA=16 job, and Job3's gain far below the others.
func (r Fig14Result) CheckShape() error {
	if len(r.Gains) != 3 {
		return fmt.Errorf("fig14: %d jobs, want 3", len(r.Gains))
	}
	for i := 0; i < 2; i++ {
		if r.Gains[i] < 0.06 || r.Gains[i] > 0.45 {
			return fmt.Errorf("fig14: %s gain = %s, want ≈+15%%", r.Jobs[i], pct(r.Gains[i]))
		}
	}
	if r.Gains[2] > 0.06 {
		return fmt.Errorf("fig14: Job3 gain = %s, want ≈0 (GA=16)", pct(r.Gains[2]))
	}
	if r.Gains[2] > r.Gains[0]/2 || r.Gains[2] > r.Gains[1]/2 {
		return fmt.Errorf("fig14: Job3 (%s) should gain far less than Job1/Job2", pct(r.Gains[2]))
	}
	return nil
}
