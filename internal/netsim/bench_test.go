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
				n.StartFlow(p, size, fmt.Sprintf("g%d-e%d-m%d", g, i, k), onComplete)
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

func runGang(kv kernelVariant, nodes, flowsPerPair int) gangRun {
	eng := sim.NewEngine()
	tp := topo.MustNew(benchSpec(nodes))
	n := kv.build(eng, tp)
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
// completions, probe bits and event counts, with the work the class kernel
// saves growing with the flows per chain (QPs times in-flight chunks) —
// at least 10x from 32 flows per chain. The ratios are the same at 16
// nodes as on the 256-node netsim/scale-* world, because the gang world
// scales both kernels linearly in the number of gangs.
func TestClassKernelWorkAgainstOracle(t *testing.T) {
	const nodes = 16
	want := map[int]string{8: "4.7", 32: "12.4", 128: "42.3"}
	prev := 0.0
	for _, members := range []int{8, 32, 128} {
		runs := make([]gangRun, len(kernelVariants))
		for i, kv := range kernelVariants {
			runs[i] = runGang(kv, nodes, members)
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
