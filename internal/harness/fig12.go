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

// Fig12Variant is one half of Fig 12: the 8-task run with a mid-run link
// failure, under either C4P static traffic engineering (failures handled
// by data-plane rehash, Fig 12a) or C4P dynamic load balance (master
// reallocation + QP re-weighting, Fig 12b).
type Fig12Variant struct {
	Mode        string
	Tasks       []*metrics.Series // per-iteration busbw over time
	PreFailAvg  float64           // mean busbw before the failure
	PostFailAvg float64           // mean busbw after (settled)
	IdealPost   float64           // 7/8 of pre-failure (1 of 8 uplinks dead)
}

// Fig12Result bundles both variants.
type Fig12Result struct {
	FailAt  sim.Time
	Static  Fig12Variant
	Dynamic Fig12Variant
}

// RunFig12 executes both variants on the 1:1 fabric, killing one of the
// affected leaf's 8 uplinks (both directions of the cable) mid-run.
func RunFig12(seed int64) Fig12Result { return runFig12(scenario.NewCtx(seed)) }

func runFig12(ctx *scenario.Ctx) Fig12Result {
	seed := ctx.Seed
	const (
		failAt  = 30 * sim.Second
		horizon = 90 * sim.Second
	)
	run := func(kind c4p.ProviderKind, qps int, label string) Fig12Variant {
		e := newEnv(ctx, topo.MultiJobTestbed(8))
		benches := runConcurrentJobs(e, kind, seed, horizon, qps)
		e.Eng.Schedule(failAt, func() {
			leaf := e.Topo.LeafAt(0, 0, 0)
			e.Net.SetLinkUp(leaf.Ups[2], false)
			e.Net.SetLinkUp(leaf.Downs[2], false)
			// The withdrawal changes the leaf's ECMP group: every flow
			// through this leaf gets re-resolved (static: uncoordinated
			// rehash; dynamic: master re-placement).
			for _, b := range benches {
				b.Comm.RefreshPaths(func(p *topo.Path) bool {
					return p.Spine != nil && (p.SrcPort.Leaf == leaf || p.DstPort.Leaf == leaf)
				})
			}
		})
		e.Eng.RunUntil(horizon + 30*sim.Second)
		v := Fig12Variant{Mode: label}
		var pre, post []float64
		for _, b := range benches {
			v.Tasks = append(v.Tasks, b.Series)
			for _, s := range b.Series.Samples {
				switch {
				case s.T < failAt.Seconds():
					pre = append(pre, s.V)
				case s.T > (failAt + 10*sim.Second).Seconds():
					post = append(post, s.V)
				}
			}
		}
		v.PreFailAvg = metrics.Mean(pre)
		v.PostFailAvg = metrics.Mean(post)
		v.IdealPost = v.PreFailAvg * 7 / 8
		return v
	}
	return Fig12Result{
		FailAt:  failAt,
		Static:  run(c4p.C4PStatic, 2, "static traffic engineering"),
		Dynamic: run(c4p.C4PDynamic, 8, "dynamic load balance"),
	}
}

// String renders both variants.
func (r Fig12Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 12 — link failure at t=%v during 8 concurrent tasks\n", r.FailAt)
	rows := [][]string{}
	for _, v := range []Fig12Variant{r.Static, r.Dynamic} {
		rows = append(rows, []string{
			v.Mode,
			fmt.Sprintf("%.1f", v.PreFailAvg),
			fmt.Sprintf("%.1f", v.PostFailAvg),
			fmt.Sprintf("%.1f", v.IdealPost),
		})
	}
	sb.WriteString(metrics.Table([]string{"mode", "pre-fail", "post-fail", "ideal 7/8"}, rows))
	gain := r.Dynamic.PostFailAvg/r.Static.PostFailAvg - 1
	fmt.Fprintf(&sb, "dynamic vs static after failure: %s\n", pct(gain))
	return sb.String()
}

// CheckShape validates the paper's claims: static degrades substantially
// after the failure; dynamic recovers close to the 7/8 ideal and clearly
// beats static (paper: 185.8 vs 301.5 Gbps, +62.3%, ideal 315).
func (r Fig12Result) CheckShape() error {
	if r.Static.PreFailAvg < 330 || r.Dynamic.PreFailAvg < 330 {
		return fmt.Errorf("fig12: pre-failure busbw %.1f/%.1f, want ≈360",
			r.Static.PreFailAvg, r.Dynamic.PreFailAvg)
	}
	if r.Static.PostFailAvg > r.Static.PreFailAvg*0.93 {
		return fmt.Errorf("fig12: static barely degraded (%.1f -> %.1f)",
			r.Static.PreFailAvg, r.Static.PostFailAvg)
	}
	if r.Dynamic.PostFailAvg < r.Static.PostFailAvg*1.05 {
		return fmt.Errorf("fig12: dynamic (%.1f) should clearly beat static (%.1f)",
			r.Dynamic.PostFailAvg, r.Static.PostFailAvg)
	}
	if r.Dynamic.PostFailAvg < r.Dynamic.IdealPost*0.85 {
		return fmt.Errorf("fig12: dynamic %.1f far from 7/8 ideal %.1f",
			r.Dynamic.PostFailAvg, r.Dynamic.IdealPost)
	}
	return nil
}
