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

// Fig3Result reproduces Fig 3 (§II-D): actual vs ideal throughput of a
// GPT-22B training job as the system scales from 16 to 512 GPUs on the
// baseline (ECMP) fabric. "Ideal" is linear scaling from the smallest
// configuration, the paper's definition; the widening gap is caused by
// ECMP traffic collisions, whose worst edge governs the whole ring.
type Fig3Result struct {
	GPUs   []int
	Actual []float64 // samples/sec
	Ideal  []float64
}

// fig3Spec is a 64-node (512-GPU) pod with the standard 8-node leaf
// groups and 1:1 oversubscription.
func fig3Spec() topo.Spec {
	s := topo.MultiJobTestbed(8)
	s.Nodes = 64
	return s
}

// fig3Job builds the GPT-22B TP8×DP(m) job used for the sweep. Compute is
// calibrated so communication is ≈30% of an ideal iteration, the regime
// the paper identifies for its jobs.
func fig3Job(nodes []int) workload.JobSpec {
	return workload.JobSpec{
		Name:                 "GPT-22B-scale",
		Model:                workload.GPT22B,
		Par:                  workload.Parallelism{TP: 8, DP: len(nodes), GA: 1},
		Nodes:                nodes,
		ComputePerMicroBatch: 600 * sim.Millisecond,
		ComputeJitter:        0.01,
		SamplesPerIter:       8 * float64(len(nodes)), // weak scaling
	}
}

// runFig3 sweeps 2..64 nodes, averaging the baseline over ECMP hash draws
// (a job's QP placement is fixed for its lifetime, so single runs are
// bimodal at small scale).
func runFig3(ctx *scenario.Ctx) Fig3Result {
	seed := ctx.Seed
	res := Fig3Result{}
	scales := []int{2, 4, 8, 16, 32, 64}
	var basePerGPU float64
	for _, m := range scales {
		res.GPUs = append(res.GPUs, m*8)
		const draws = 3
		var sps float64
		for d := int64(0); d < draws; d++ {
			e := newEnv(ctx, fig3Spec())
			nodes := make([]int, m)
			for i := range nodes {
				nodes[i] = i
			}
			j, err := job.New(job.Config{
				Engine: e.Eng, Net: e.Net,
				Provider: e.NewProvider(c4p.Baseline, seed+31*d),
				Spec:     fig3Job(nodes),
				Rand:     sim.NewRand(seed + d),
			})
			if err != nil {
				panic(err)
			}
			var rep job.Report
			j.Run(5, func(r job.Report) { rep = r })
			e.Eng.Run()
			sps += rep.SamplesPerSec
		}
		sps /= draws
		res.Actual = append(res.Actual, sps)
		if basePerGPU == 0 {
			basePerGPU = sps / float64(m*8)
		}
		res.Ideal = append(res.Ideal, basePerGPU*float64(m*8))
	}
	return res
}

// String renders the sweep.
func (r Fig3Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 3 — GPT-22B throughput vs scale (samples/sec), ECMP baseline\n")
	rows := make([][]string, len(r.GPUs))
	for i := range r.GPUs {
		loss := 1 - r.Actual[i]/r.Ideal[i]
		rows[i] = []string{
			fmt.Sprintf("GPU=%d", r.GPUs[i]),
			fmt.Sprintf("%.1f", r.Actual[i]),
			fmt.Sprintf("%.1f", r.Ideal[i]),
			fmt.Sprintf("%.0f%%", loss*100),
		}
	}
	sb.WriteString(metrics.Table([]string{"scale", "actual", "ideal", "loss"}, rows))
	return sb.String()
}

// CheckShape validates the paper's claim: the loss versus linear scaling
// grows with system size and reaches roughly 30% at 512 GPUs.
func (r Fig3Result) CheckShape() error {
	n := len(r.GPUs)
	lossAt := func(i int) float64 { return 1 - r.Actual[i]/r.Ideal[i] }
	finalLoss := lossAt(n - 1)
	if finalLoss < 0.15 || finalLoss > 0.5 {
		return fmt.Errorf("fig3: loss at 512 GPUs = %.0f%%, want ≈30%%", finalLoss*100)
	}
	if lossAt(n-1) <= lossAt(1) {
		return fmt.Errorf("fig3: loss should grow with scale (%.2f at %d GPUs vs %.2f at %d)",
			lossAt(1), r.GPUs[1], lossAt(n-1), r.GPUs[n-1])
	}
	for i := range r.GPUs {
		if r.Actual[i] > r.Ideal[i]*1.02 {
			return fmt.Errorf("fig3: actual exceeds ideal at %d GPUs", r.GPUs[i])
		}
	}
	return nil
}
