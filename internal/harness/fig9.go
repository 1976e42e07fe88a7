package harness

import (
	"fmt"
	"strings"

	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/topo"
)

// Fig9Result reproduces Fig 9: single-job allreduce bus bandwidth with and
// without C4P's dual-port balance, swept over 16–128 GPUs. Without C4P the
// fabric may deliver both of a bond's flows to the same receive port,
// halving the effective bandwidth; C4P's same-plane rule prevents it.
type Fig9Result struct {
	GPUs     []int
	Baseline []float64 // mean busbw, Gbps
	C4P      []float64
}

// RunFig9 executes the sweep. Each point is a fresh fabric so runs are
// independent; the baseline is averaged over several ECMP seeds because a
// single job either collides or not for its whole lifetime.
func RunFig9(seed int64) Fig9Result { return runFig9(scenario.NewCtx(seed)) }

func runFig9(ctx *scenario.Ctx) Fig9Result {
	seed := ctx.Seed
	res := Fig9Result{}
	const bytes = 512 << 20
	for _, m := range []int{2, 4, 8, 16} {
		res.GPUs = append(res.GPUs, m*8)

		// Baseline: average over ECMP hash draws.
		var base float64
		const draws = 5
		for d := int64(0); d < draws; d++ {
			e := newEnv(ctx, topo.MultiJobTestbed(8))
			b, err := StartBench(e, BenchConfig{
				Nodes: InterleavedNodes(m), Bytes: bytes, Iters: 4,
				Provider: e.NewProvider(c4p.Baseline, seed+100*d), QPsPerConn: 2, Seed: seed + d,
			})
			if err != nil {
				panic(err)
			}
			e.Eng.Run()
			base += b.MeanBusGbps()
		}
		res.Baseline = append(res.Baseline, base/draws)

		e := newEnv(ctx, topo.MultiJobTestbed(8))
		b, err := StartBench(e, BenchConfig{
			Nodes: InterleavedNodes(m), Bytes: bytes, Iters: 4,
			Provider: e.NewProvider(c4p.C4PStatic, seed), QPsPerConn: 2, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		e.Eng.Run()
		res.C4P = append(res.C4P, b.MeanBusGbps())
	}
	return res
}

// String renders the figure as a table plus bars.
func (r Fig9Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 9 — allreduce busbw (Gbps), dual-port balance\n")
	rows := make([][]string, len(r.GPUs))
	for i := range r.GPUs {
		rows[i] = []string{
			fmt.Sprintf("GPU=%d", r.GPUs[i]),
			fmt.Sprintf("%.1f", r.Baseline[i]),
			fmt.Sprintf("%.1f", r.C4P[i]),
			pct(r.C4P[i]/r.Baseline[i] - 1),
		}
	}
	sb.WriteString(metrics.Table([]string{"scale", "baseline", "C4P", "gain"}, rows))
	return sb.String()
}

// CheckShape validates the paper's qualitative claims: baseline stuck well
// below line rate (<240 Gbps beyond trivial scale), C4P close to the
// ~360 Gbps NVLink-bounded peak, ≈50% gain.
func (r Fig9Result) CheckShape() error {
	for i, g := range r.GPUs {
		if r.C4P[i] < 330 || r.C4P[i] > 370 {
			return fmt.Errorf("fig9: C4P busbw at %d GPUs = %.1f, want ≈360", g, r.C4P[i])
		}
		if g >= 32 {
			if r.Baseline[i] > 300 {
				return fmt.Errorf("fig9: baseline busbw at %d GPUs = %.1f, want <300 (rx imbalance)", g, r.Baseline[i])
			}
			if gain := r.C4P[i]/r.Baseline[i] - 1; gain < 0.25 {
				return fmt.Errorf("fig9: gain at %d GPUs = %.2f, want ≳0.5", g, gain)
			}
		}
	}
	return nil
}
