package netsim

import (
	"fmt"
	"slices"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

// benchSpec is a gang-partitioned datacenter slice: groups of 8 nodes,
// ring traffic inside each group, nothing between groups — the communication
// shape of pure-DP training with gang scheduling, and the best case for
// both flow-class aggregation (16 flows per ring edge collapse into one
// class) and parallel settle (each gang splits into independent link
// components, one per (plane, spine) coordinate its ring edges use).
func benchSpec(nodes int) topo.Spec {
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

// startGangRings launches flowsPerPair flows on every ring edge of every
// group. Sizes vary per edge and member — not per group — so completions
// arrive in many deterministic waves, each wave triggering a recompute.
func startGangRings(n *Network, tp *topo.Topology, flowsPerPair int, onComplete func(*Flow)) int {
	spec := tp.Spec
	groups := spec.Groups()
	flows := 0
	for g := 0; g < groups; g++ {
		for i := 0; i < spec.NodesPerGroup; i++ {
			src := g*spec.NodesPerGroup + i
			dst := g*spec.NodesPerGroup + (i+1)%spec.NodesPerGroup
			plane := i % topo.Planes
			spine := i % spec.Spines
			p, err := tp.PathFor(src, dst, 0, plane, spine, plane)
			if err != nil {
				panic(err)
			}
			for k := 0; k < flowsPerPair; k++ {
				size := 20e9 * (1 + 0.11*float64(k) + 0.013*float64(i))
				n.StartFlow(p, size, fmt.Sprintf("g%d-e%d-m%d", g, i, k), FlowFunc(onComplete))
				flows++
			}
		}
	}
	return flows
}

// gangRun is the outcome of one gang-world run: every completion in
// order, probe bits on two uplinks, the fired-event count, and the
// kernel's work counters.
type gangRun struct {
	done   []string
	probes [2]float64
	fired  uint64
	stats  KernelStats
}

// runGang runs the gang world with every recompute checked against the
// max-min certificate.
func runGang(t *testing.T, kv kernelVariant, nodes, flowsPerPair int) gangRun {
	eng := sim.NewEngine()
	tp := topo.MustNew(benchSpec(nodes))
	n := kv.build(eng, tp)
	certify(t, n)
	var r gangRun
	startGangRings(n, tp, flowsPerPair, func(f *Flow) {
		r.done = append(r.done, fmt.Sprintf("%s@%d", f.Label, eng.Now()))
	})
	eng.Run()
	r.probes = [2]float64{n.CarriedBits(tp.PortAt(0, 0, 0).Up), n.CarriedBits(tp.PortAt(1, 0, 1).Up)}
	r.fired = eng.Fired()
	r.stats = n.Stats()
	return r
}

// TestClassKernelWorkAgainstOracle holds the class kernel to the per-flow
// oracle on the gang world as the aggregation factor grows: bit-identical
// completions, probe bits and event counts, every allocation max-min
// certified, and the work the class kernel saves growing with the flows per
// chain (QPs times in-flight chunks) — at least 10x from 32 flows per
// chain. The savings compound aggregation with event-local re-filling: a
// completion wave re-fills only the components whose classes lost members,
// while the oracle re-fills the whole fabric.
func TestClassKernelWorkAgainstOracle(t *testing.T) {
	const nodes = 16
	want := map[int]string{8: "13.7", 32: "43.2", 128: "161.4"}
	prev := 0.0
	for _, members := range []int{8, 32, 128} {
		runs := make([]gangRun, len(kernelVariants))
		for i, kv := range kernelVariants {
			runs[i] = runGang(t, kv, nodes, members)
		}
		ref, cls := runs[0], runs[1]
		if len(ref.done) != 2*8*members {
			t.Fatalf("%d flows/chain: %d of %d flows completed", members, len(ref.done), 2*8*members)
		}
		for i, got := range runs[1:] {
			if !slices.Equal(got.done, ref.done) || got.probes != ref.probes || got.fired != ref.fired {
				t.Fatalf("%d flows/chain: %s kernel diverged from per-flow (probes %v vs %v, %d vs %d events)",
					members, kernelVariants[i+1].name, got.probes, ref.probes, got.fired, ref.fired)
			}
			if got.stats != cls.stats {
				t.Fatalf("%d flows/chain: %s kernel did different work than serial: %+v vs %+v",
					members, kernelVariants[i+1].name, got.stats, cls.stats)
			}
		}
		ratio := float64(ref.stats.LinkVisits) / float64(cls.stats.LinkVisits)
		t.Logf("%d flows/chain: %d vs %d link visits, ratio %.1fx", members, ref.stats.LinkVisits, cls.stats.LinkVisits, ratio)
		if got := fmt.Sprintf("%.1f", ratio); got != want[members] {
			t.Errorf("%d flows/chain: work ratio %sx, want %sx", members, got, want[members])
		}
		if ratio <= prev {
			t.Errorf("%d flows/chain: work ratio %.1fx does not grow past %.1fx", members, ratio, prev)
		}
		if members >= 32 && ratio < 10 {
			t.Errorf("%d flows/chain: work ratio %.1fx, want >= 10x", members, ratio)
		}
		prev = ratio
	}
}

// TestRecomputeIsEventLocal pins the mechanism the event-local kernel's
// speed rests on. On the 16-node gang world, whose 16 classes form 8 link
// components, cancelling one flow after every flow is admitted must
// re-fill only that flow's component: the next recompute does exactly the
// link work of the same cancel on a network carrying that component alone,
// and every member of every other class keeps its rate, CNP rate and
// goodput.
func TestRecomputeIsEventLocal(t *testing.T) {
	type alloc struct{ rate, cnp, good float64 }
	// cancelFirst admits flows, cancels the first one, runs the recompute
	// that follows, and returns its link visits.
	cancelFirst := func(n *Network, eng *sim.Engine) uint64 {
		eng.RunUntil(sim.Millisecond)
		victim := n.flows[0]
		before := n.Stats()
		n.Cancel(victim)
		n.Utilization(victim.Path.Links[0]) // runs the pending recompute
		after := n.Stats()
		if after.Recomputes != before.Recomputes+1 {
			t.Fatalf("%d recomputes after the cancel, want 1", after.Recomputes-before.Recomputes)
		}
		return after.LinkVisits - before.LinkVisits
	}
	for _, kv := range kernelVariants[1:] {
		eng := sim.NewEngine()
		tp := topo.MustNew(benchSpec(16))
		world := kv.build(eng, tp)
		startGangRings(world, tp, 8, nil)
		eng.RunUntil(sim.Millisecond)
		if got := world.ComponentCount(); got != 8 {
			t.Fatalf("[%s] %d components, want 8", kv.name, got)
		}
		own := world.flows[0].class.comp
		var chains [][]*Flow // the component's classes' members, victim first
		for _, fc := range own.classes {
			chains = append(chains, slices.Clone(fc.members))
		}
		kept := map[*Flow]alloc{}
		for _, f := range world.flows {
			if f.class.comp != own {
				kept[f] = alloc{f.rate, f.cnpRate, f.goodRate}
			}
		}
		visits := cancelFirst(world, eng)
		for f, a := range kept {
			if got := (alloc{f.rate, f.cnpRate, f.goodRate}); got != a {
				t.Fatalf("[%s] %s outside the cancelled flow's component moved from %+v to %+v", kv.name, f.Label, a, got)
			}
		}

		// The same component alone.
		eng2 := sim.NewEngine()
		alone := kv.build(eng2, tp)
		for _, members := range chains {
			for _, f := range members {
				alone.StartFlow(f.Path, f.SizeBits(), f.Label, nil)
			}
		}
		if want := cancelFirst(alone, eng2); visits != want {
			t.Fatalf("[%s] cancel re-filled %d link visits, want %d: the cancelled flow's component alone", kv.name, visits, want)
		}
	}
}

func runGangWorld(b *testing.B, kv kernelVariant, nodes, flowsPerPair int) {
	b.ReportAllocs()
	var visits uint64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		tp := topo.MustNew(benchSpec(nodes))
		n := kv.build(eng, tp)
		startGangRings(n, tp, flowsPerPair, nil)
		eng.Run()
		if n.ActiveFlows() != 0 {
			b.Fatalf("%d flows never completed", n.ActiveFlows())
		}
		visits += n.Stats().LinkVisits
	}
	b.ReportMetric(float64(visits)/float64(b.N), "linkvisits/run")
}

// BenchmarkRecomputePerFlow prices the per-flow oracle on a 64-node world:
// every recompute scans all flows and the dense link-ID space.
func BenchmarkRecomputePerFlow(b *testing.B) {
	runGangWorld(b, kernelVariants[0], 64, 16)
}

// BenchmarkRecomputeAggregated is the same workload through the class
// kernel: 16 flows per ring edge cost one class.
func BenchmarkRecomputeAggregated(b *testing.B) {
	runGangWorld(b, kernelVariants[1], 64, 16)
}

// BenchmarkSettleParallel adds parallel component settle: the 8 gangs
// fill on 4 workers.
func BenchmarkSettleParallel(b *testing.B) {
	runGangWorld(b, kernelVariants[2], 64, 16)
}

// BenchmarkRecomputeAggregated128 is the class kernel at the
// netsim/scale-sweep shape: 128 flows per ring edge, so completion waves
// retire members from classes of up to 128 and the per-event bookkeeping
// around the kernel, not the filling, dominates.
func BenchmarkRecomputeAggregated128(b *testing.B) {
	runGangWorld(b, kernelVariants[1], 64, 128)
}

// BenchmarkSettle times settle alone, without the fill, at the
// netsim/scale-sweep shape: the 256-node gang world with 128 flows per
// chain (32,768 flows in 256 classes), every flow admitted and moving,
// and the clock advanced 1 µs before each settle, far short of any
// completion.
func BenchmarkSettle(b *testing.B) {
	eng := sim.NewEngine()
	tp := topo.MustNew(benchSpec(256))
	n := New(eng, tp, DefaultConfig())
	flows := startGangRings(n, tp, 128, nil)
	eng.RunUntil(sim.Millisecond) // admits every flow and fills once
	for _, f := range n.flows {
		if f == nil || f.goodRate <= 0 {
			b.Fatalf("a flow is not moving after admission")
		}
	}
	if got := n.ActiveFlows(); got != flows {
		b.Fatalf("%d of %d flows active", got, flows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(sim.Microsecond)
		n.settle()
	}
	b.StopTimer()
	if len(n.drained) != 0 {
		b.Fatalf("%d flows drained: the clock reached a completion", len(n.drained))
	}
}
