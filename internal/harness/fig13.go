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

// Fig13Variant is the switch-side view of one Fig 12 run: per-uplink
// bandwidth on the leaf that loses a link.
type Fig13Variant struct {
	Mode  string
	Ports []*metrics.Series // Gbps per 2s window, one series per uplink
	// PostImbalance is the max/mean bandwidth ratio across surviving
	// uplinks after the failure settles — 1.0 is perfect balance; static
	// rehash leaves some survivors dark and others overloaded.
	PostImbalance float64
}

// Fig13Result bundles both variants.
type Fig13Result struct {
	FailAt    sim.Time
	FailIndex int
	Static    Fig13Variant
	Dynamic   Fig13Variant
}

// runFig13 re-runs the Fig 12 experiments while sampling the affected
// leaf's uplink counters, reproducing the paper's switch-port bandwidth
// comparison: without dynamic load balance the orphaned traffic piles onto
// a few ports; with it the load spreads across all surviving uplinks.
func runFig13(ctx *scenario.Ctx) Fig13Result {
	seed := ctx.Seed
	const (
		failAt   = 30 * sim.Second
		horizon  = 90 * sim.Second
		interval = 2 * sim.Second
		failIdx  = 2
	)
	run := func(kind c4p.ProviderKind, qps int, label string) Fig13Variant {
		e := newEnv(ctx, topo.MultiJobTestbed(8))
		benches := runConcurrentJobs(e, kind, seed, horizon, qps)
		leaf := e.Topo.LeafAt(0, 0, 0)
		e.Eng.Schedule(failAt, func() {
			e.Net.SetLinkUp(leaf.Ups[failIdx], false)
			e.Net.SetLinkUp(leaf.Downs[failIdx], false)
			for _, b := range benches {
				b.Comm.RefreshPaths(func(p *topo.Path) bool {
					return p.Spine != nil && (p.SrcPort.Leaf == leaf || p.DstPort.Leaf == leaf)
				})
			}
		})
		v := Fig13Variant{Mode: label}
		last := make([]float64, len(leaf.Ups))
		for range leaf.Ups {
			v.Ports = append(v.Ports, &metrics.Series{Name: "uplink"})
		}
		var sample func()
		sample = func() {
			now := e.Eng.Now()
			for i, up := range leaf.Ups {
				bits := e.Net.CarriedBits(up)
				gbps := (bits - last[i]) / interval.Seconds() / 1e9
				last[i] = bits
				v.Ports[i].Add(now.Seconds(), gbps)
			}
			if now < horizon {
				e.Eng.After(interval, sample)
			}
		}
		e.Eng.After(interval, sample)
		e.Eng.RunUntil(horizon)

		// Balance across surviving links in the settled post-failure span.
		lo, hi := (failAt + 10*sim.Second).Seconds(), horizon.Seconds()
		var maxBW, sum float64
		count := 0
		for i, s := range v.Ports {
			if i == failIdx {
				continue
			}
			var vals []float64
			for _, p := range s.Window(lo, hi) {
				vals = append(vals, p.V)
			}
			m := metrics.Mean(vals)
			if m > maxBW {
				maxBW = m
			}
			sum += m
			count++
		}
		if sum > 0 {
			v.PostImbalance = maxBW / (sum / float64(count))
		}
		return v
	}
	return Fig13Result{
		FailAt:    failAt,
		FailIndex: failIdx,
		Static:    run(c4p.C4PStatic, 2, "static traffic engineering"),
		Dynamic:   run(c4p.C4PDynamic, 8, "dynamic load balance"),
	}
}

// String renders the settled per-port bandwidths.
func (r Fig13Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 13 — leaf uplink bandwidth (Gbps), link %d killed at %v\n", r.FailIndex, r.FailAt)
	for _, v := range []Fig13Variant{r.Static, r.Dynamic} {
		fmt.Fprintf(&sb, "%s (post-failure max/mean across survivors: %.2f)\n", v.Mode, v.PostImbalance)
		labels := make([]string, len(v.Ports))
		vals := make([]float64, len(v.Ports))
		for i, s := range v.Ports {
			labels[i] = fmt.Sprintf("uplink%d", i)
			vals[i] = s.Last()
		}
		sb.WriteString(metrics.Bars(labels, vals, 40))
	}
	return sb.String()
}

// CheckShape validates the paper's claim: the failed port goes dark in
// both runs; dynamic load balance spreads traffic far more evenly across
// the survivors than static rehash.
func (r Fig13Result) CheckShape() error {
	for _, v := range []Fig13Variant{r.Static, r.Dynamic} {
		if last := v.Ports[r.FailIndex].Last(); last > 1 {
			return fmt.Errorf("fig13 %s: failed uplink still carries %.1f Gbps", v.Mode, last)
		}
	}
	if r.Dynamic.PostImbalance > 1.3 {
		return fmt.Errorf("fig13: dynamic survivors imbalanced %.2fx, want ≈1", r.Dynamic.PostImbalance)
	}
	if r.Static.PostImbalance < 1.4 {
		return fmt.Errorf("fig13: static imbalance %.2f, want concentration (>1.4)", r.Static.PostImbalance)
	}
	if r.Static.PostImbalance < r.Dynamic.PostImbalance {
		return fmt.Errorf("fig13: static (%.2f) should be less balanced than dynamic (%.2f)",
			r.Static.PostImbalance, r.Dynamic.PostImbalance)
	}
	return nil
}
