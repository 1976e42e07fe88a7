package harness

import (
	"fmt"
	"strings"

	"c4/internal/metrics"
	"c4/internal/netsim"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// This file registers the netsim/scale-* family: the flow-class kernel
// measured at datacenter scale. Each scenario drives the same
// gang-partitioned world — groups of 8 nodes running ring traffic, the
// communication shape of pure-DP training with gang scheduling — and
// scores the kernel in KernelStats link visits, a deterministic step count
// safe for the bench-regression baseline. The comparison with the per-flow
// kernel, a test oracle, lives in netsim's TestClassKernelWorkAgainstOracle.

// scaleSpec is the gang-partitioned datacenter slice the family runs on:
// groups of 8 nodes on a 2-rail, 4-spine fabric.
func scaleSpec(nodes int) topo.Spec {
	return topo.Spec{
		Nodes:         nodes,
		GPUsPerNode:   8,
		Rails:         2,
		NodesPerGroup: 8,
		Spines:        4,
		PortGbps:      200,
		NVLinkGbps:    362,
	}
}

// scaleFlowsPerPair models one ring edge's transfer as 2 QPs with 16
// chunks in flight each: 32 equal-path flows that collapse into a single
// flow class.
const scaleFlowsPerPair = 32

// scaleComponents is how many independent link components the gang world
// decomposes into: ring edge i of each gang runs on (plane i%2, spine
// i%4), so edges sharing both coordinates chain through the same leaf-up
// link — lcm(planes, spines) = 4 components per gang.
func scaleComponents(nodes int) int { return scaleSpec(nodes).Groups() * 4 }

// ScaleArm is one complete run of the gang world under one settle width:
// the observables that must not depend on it (makespan, probe bytes,
// event count) plus the kernel's work counters.
type ScaleArm struct {
	Settle     string
	Flows      int
	Completed  int
	Makespan   sim.Time
	Probe0     float64 // carried bits on node 0's rail-0/plane-0 uplink
	Probe1     float64 // carried bits on node 1's rail-0/plane-1 uplink
	Events     uint64
	Recomputes uint64
	LinkVisits uint64
	Classes    int // live flow classes mid-run
	Components int // link components mid-run
}

// VisitsPerRecompute is the kernel's average work per recompute.
func (a ScaleArm) VisitsPerRecompute() float64 {
	return metrics.Ratio(float64(a.LinkVisits), float64(a.Recomputes))
}

// runScaleArm builds a fresh engine, fabric and network under cfg, starts
// flowsPerPair flows on every ring edge of every gang, and runs to
// completion. Sizes vary per edge and member — not per group — so
// completions arrive in many deterministic waves, each one a recompute,
// and matching flows of different gangs finish at the same instant.
func runScaleArm(ctx *scenario.Ctx, nodes, flowsPerPair int, cfg netsim.Config, settle string) ScaleArm {
	eng := sim.NewEngine()
	tp := topo.MustNew(scaleSpec(nodes))
	n := netsim.New(eng, tp, cfg)
	ctx.Track(eng)

	arm := ScaleArm{Settle: settle}
	finish := func(f *netsim.Flow) {
		arm.Completed++
		arm.Makespan = eng.Now()
	}
	spec := tp.Spec
	for g := 0; g < spec.Groups(); g++ {
		for i := 0; i < spec.NodesPerGroup; i++ {
			src := g*spec.NodesPerGroup + i
			dst := g*spec.NodesPerGroup + (i+1)%spec.NodesPerGroup
			plane := i % topo.Planes
			p, err := tp.PathFor(src, dst, 0, plane, i%spec.Spines, plane)
			if err != nil {
				panic(err)
			}
			for k := 0; k < flowsPerPair; k++ {
				size := 20e9 * (1 + 0.11*float64(k) + 0.013*float64(i))
				n.StartFlow(p, size, fmt.Sprintf("g%d-e%d-m%d", g, i, k), netsim.FlowFunc(finish))
				arm.Flows++
			}
		}
	}
	// Sample the class/component census mid-run, after every flow has been
	// admitted and long before the first completion.
	eng.Schedule(sim.Second, func() {
		arm.Classes = n.ClassCount()
		arm.Components = n.ComponentCount()
	})
	eng.Run()

	st := n.Stats()
	arm.Recomputes = st.Recomputes
	arm.LinkVisits = st.LinkVisits
	arm.Probe0 = n.CarriedBits(tp.PortAt(0, 0, 0).Up)
	arm.Probe1 = n.CarriedBits(tp.PortAt(1, 0, 1).Up)
	arm.Events = eng.Fired()
	return arm
}

// ScaleKernelResult is one or more settle widths on one world: every arm
// must complete all its flows, every arm after the first must match the
// first bit for bit, and the last must decompose the fabric into four
// independent filling problems per gang.
type ScaleKernelResult struct {
	Nodes int
	Arms  []ScaleArm
}

// String renders the per-arm table.
func (r ScaleKernelResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "netsim kernel on the %d-node gang world (%d flows)\n", r.Nodes, r.Arms[0].Flows)
	rows := make([][]string, len(r.Arms))
	for i, a := range r.Arms {
		rows[i] = []string{
			a.Settle,
			fmt.Sprintf("%.3f s", a.Makespan.Seconds()),
			fmt.Sprintf("%d", a.Recomputes),
			fmt.Sprintf("%d", a.LinkVisits),
			fmt.Sprintf("%d", a.Classes),
			fmt.Sprintf("%d", a.Components),
		}
	}
	sb.WriteString(metrics.Table([]string{"settle", "makespan", "recomputes", "link visits", "classes", "components"}, rows))
	return sb.String()
}

// CheckShape: full completion, bit-identical observables across settle
// widths, and the promised component decomposition.
func (r ScaleKernelResult) CheckShape() error {
	ref := r.Arms[0]
	for _, a := range r.Arms {
		if a.Completed != a.Flows {
			return fmt.Errorf("%s completed %d of %d flows", a.Settle, a.Completed, a.Flows)
		}
		if a.Makespan != ref.Makespan || a.Probe0 != ref.Probe0 || a.Probe1 != ref.Probe1 || a.Events != ref.Events {
			return fmt.Errorf("%s (makespan %v, probe bits %g/%g, %d events) diverged from %s (%v, %g/%g, %d)",
				a.Settle, a.Makespan, a.Probe0, a.Probe1, a.Events, ref.Settle, ref.Makespan, ref.Probe0, ref.Probe1, ref.Events)
		}
	}
	if last, want := r.Arms[len(r.Arms)-1], scaleComponents(r.Nodes); last.Components != want {
		return fmt.Errorf("%s saw %d link components, want %d (four per gang)",
			last.Settle, last.Components, want)
	}
	return nil
}

// Metrics feeds the bench-regression baseline; every number is a
// deterministic step count or virtual time.
func (r ScaleKernelResult) Metrics() map[string]float64 {
	last := r.Arms[len(r.Arms)-1]
	return map[string]float64{
		"makespan_s":     r.Arms[0].Makespan.Seconds(),
		"new_linkvisits": float64(last.LinkVisits),
		"classes":        float64(last.Classes),
		"components":     float64(last.Components),
	}
}

// runScaleAggregate runs the flow-class kernel once on a 256-node world:
// 32 flows per ring edge collapse into one class per edge.
func runScaleAggregate(ctx *scenario.Ctx) ScaleKernelResult {
	const nodes = 256
	return ScaleKernelResult{
		Nodes: nodes,
		Arms:  []ScaleArm{runScaleArm(ctx, nodes, scaleFlowsPerPair, netsim.DefaultConfig(), "serial")},
	}
}

// runScaleParallel races serial component settle against the 8-worker
// parallel settle on the same world: byte-identical by construction, with
// one component per gang available to fill concurrently.
func runScaleParallel(ctx *scenario.Ctx) ScaleKernelResult {
	const nodes = 256
	serial := netsim.DefaultConfig()
	par := serial
	par.SettleWorkers = 8
	return ScaleKernelResult{
		Nodes: nodes,
		Arms: []ScaleArm{
			runScaleArm(ctx, nodes, scaleFlowsPerPair, serial, "serial"),
			runScaleArm(ctx, nodes, scaleFlowsPerPair, par, "parallel-8"),
		},
	}
}

// ScaleSweepResult tracks the kernel's work per recompute as the
// aggregation factor grows. What the class kernel wins on is the number of
// flows per identical chain — QPs times in-flight chunks, the axis real
// workloads scale along: more members per class leave its pass at one
// visit per chain, so the work per recompute stays flat.
type ScaleSweepResult struct {
	Members []int // flows per ring edge
	Arms    []ScaleArm
}

// scaleSweepSlack bounds how much the work per recompute may grow across
// the sweep while flows per chain grow 16x.
const scaleSweepSlack = 1.25

// runScaleSweep runs the class kernel at three aggregation factors on the
// 256-node world.
func runScaleSweep(ctx *scenario.Ctx) ScaleSweepResult {
	const nodes = 256
	cfg := netsim.DefaultConfig()
	cfg.SettleWorkers = 4
	res := ScaleSweepResult{}
	for _, members := range []int{8, 32, 128} {
		res.Members = append(res.Members, members)
		res.Arms = append(res.Arms, runScaleArm(ctx, nodes, members, cfg, "parallel-4"))
	}
	return res
}

// String renders the sweep.
func (r ScaleSweepResult) String() string {
	var sb strings.Builder
	sb.WriteString("netsim kernel work vs flows per chain (256-node world)\n")
	rows := make([][]string, len(r.Members))
	for i, a := range r.Arms {
		rows[i] = []string{
			fmt.Sprintf("%d flows/chain", r.Members[i]),
			fmt.Sprintf("%d", a.Flows),
			fmt.Sprintf("%d", a.Recomputes),
			fmt.Sprintf("%.0f", a.VisitsPerRecompute()),
		}
	}
	sb.WriteString(metrics.Table([]string{"aggregation", "flows", "recomputes", "visits/recompute"}, rows))
	return sb.String()
}

// CheckShape: every flow completes, and the work per recompute stays
// within scaleSweepSlack of its smallest value across the sweep.
func (r ScaleSweepResult) CheckShape() error {
	lo, hi := r.Arms[0].VisitsPerRecompute(), 0.0
	for i, a := range r.Arms {
		if a.Completed != a.Flows {
			return fmt.Errorf("scale sweep: %d of %d flows completed at %d flows/chain", a.Completed, a.Flows, r.Members[i])
		}
		lo, hi = min(lo, a.VisitsPerRecompute()), max(hi, a.VisitsPerRecompute())
	}
	if hi > scaleSweepSlack*lo {
		return fmt.Errorf("scale sweep: work per recompute ranges %.0f..%.0f link visits, want within %.2fx",
			lo, hi, scaleSweepSlack)
	}
	return nil
}

// Metrics feeds the bench-regression baseline.
func (r ScaleSweepResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for i, members := range r.Members {
		m[fmt.Sprintf("visits_per_recompute_m%d", members)] = r.Arms[i].VisitsPerRecompute()
	}
	return m
}

// registerScale is invoked from the main registration init (register.go)
// so the netsim family lists after the planner.
func registerScale() {
	reg := scenario.Register

	reg(scenario.Scenario{
		Name: "netsim/scale-aggregate", Group: "netsim",
		Description: "flow-class kernel on a 256-node gang world",
		Paper:       "kernel cost per recompute is O(classes + touched links): 32 flows per chain cost one class",
		Params:      map[string]string{"nodes": "256", "flows_per_pair": "32", "shape": "gang rings"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runScaleAggregate(c) },
		Summarize: func(r scenario.Result) string {
			a := r.(ScaleKernelResult).Arms[0]
			return fmt.Sprintf("%d flows in %d classes over %d components, %.0f link visits per recompute, makespan %.3fs",
				a.Flows, a.Classes, a.Components, a.VisitsPerRecompute(), a.Makespan.Seconds())
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return r.(ScaleKernelResult).Metrics()
		},
	})
	reg(scenario.Scenario{
		Name: "netsim/scale-parallel", Group: "netsim",
		Description: "serial vs 8-worker parallel component settle on a 256-node gang world",
		Paper:       "max-min filling decomposes along link components; the parallel settle is byte-identical to serial",
		Params:      map[string]string{"nodes": "256", "workers": "8"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runScaleParallel(c) },
		Summarize: func(r scenario.Result) string {
			res := r.(ScaleKernelResult)
			last := res.Arms[len(res.Arms)-1]
			return fmt.Sprintf("%d components fill on 8 workers, byte-identical to serial", last.Components)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			res := r.(ScaleKernelResult)
			last := res.Arms[len(res.Arms)-1]
			return map[string]float64{
				"components": float64(last.Components),
				"classes":    float64(last.Classes),
				"makespan_s": res.Arms[0].Makespan.Seconds(),
			}
		},
	})
	reg(scenario.Scenario{
		Name: "netsim/scale-sweep", Group: "netsim", Slow: true,
		Description: "kernel work per recompute as flows per chain grow from 8 to 128 on 256 nodes",
		Paper:       "per-class recompute cost does not grow with QPs x in-flight chunks",
		Params:      map[string]string{"nodes": "256", "flows_per_pair": "8,32,128"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runScaleSweep(c) },
		Summarize: func(r scenario.Result) string {
			res := r.(ScaleSweepResult)
			last := len(res.Members) - 1
			return fmt.Sprintf("%.0f link visits per recompute at %d flows/chain, %.0f at %d",
				res.Arms[0].VisitsPerRecompute(), res.Members[0], res.Arms[last].VisitsPerRecompute(), res.Members[last])
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return r.(ScaleSweepResult).Metrics()
		},
	})
}
