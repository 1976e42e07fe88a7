package netsim

import (
	"fmt"
	"slices"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/trace"
)

// kernelVariant is one way to run the rate recompute. Every equivalence
// test runs all three kernelVariants — the per-flow oracle, the class
// kernel serial, and the class kernel with parallel component settle —
// and they must produce bit-identical simulations.
type kernelVariant struct {
	name    string
	workers int  // Config.SettleWorkers
	oracle  bool // the per-flow oracle instead of the class kernel
}

var kernelVariants = []kernelVariant{
	{name: "per-flow", oracle: true},
	{name: "classes"},
	{name: "parallel", workers: 4},
}

// build creates a Network on tp running this variant's kernel.
func (kv kernelVariant) build(eng *sim.Engine, tp *topo.Topology) *Network {
	cfg := DefaultConfig()
	cfg.SettleWorkers = kv.workers
	n := New(eng, tp, cfg)
	if kv.oracle {
		usePerFlow(n)
	}
	return n
}

// wtrace is the observable outcome of one simulated workload: completion
// instants per flow label, cumulative carried bits and CNPs on probe
// points, and the engine's event count. Two kernels are equivalent iff
// their traces are identical.
type wtrace struct {
	done  map[string]sim.Time
	bits  map[string]float64
	cnps  float64
	fired uint64
}

func (tr *wtrace) equal(other *wtrace) error {
	for k, v := range tr.done {
		if other.done[k] != v {
			return fmt.Errorf("flow %s completed at %v vs %v", k, v, other.done[k])
		}
	}
	for k, v := range tr.bits {
		if other.bits[k] != v {
			return fmt.Errorf("link %s carried %v vs %v bits", k, v, other.bits[k])
		}
	}
	if tr.cnps != other.cnps {
		return fmt.Errorf("cnp count %v vs %v", tr.cnps, other.cnps)
	}
	if tr.fired != other.fired {
		return fmt.Errorf("fired %d vs %d events", tr.fired, other.fired)
	}
	return nil
}

// runWorkload drives a mixed workload exercising every lifecycle edge the
// kernel has — multi-member classes, shared bottlenecks, loss, capacity
// degradation, a link failure with reroute, and a mid-flight cancel — and
// returns its trace.
func runWorkload(kv kernelVariant) *wtrace {
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	n := kv.build(eng, tp)
	tr := &wtrace{done: map[string]sim.Time{}, bits: map[string]float64{}}

	finish := func(f *Flow) { tr.done[f.Label] = eng.Now() }

	// Three classes of four members each converging on node 4: two spine
	// routes from node 0 and one from node 2. Member sizes differ, so the
	// classes shed members over time.
	for k := 0; k < 4; k++ {
		p0, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
		p1, _ := tp.PathFor(0, 4, 0, 0, 1, 0)
		p2, _ := tp.PathFor(2, 4, 0, 1, 0, 1)
		n.StartFlow(p0, 40e9*float64(k+1), fmt.Sprintf("a%d", k), FlowFunc(finish))
		n.StartFlow(p1, 30e9*float64(k+1), fmt.Sprintf("b%d", k), FlowFunc(finish))
		n.StartFlow(p2, 50e9*float64(k+1), fmt.Sprintf("c%d", k), FlowFunc(finish))
	}
	// A disjoint gang on rail 1 between nodes 8..11 (second leaf group
	// pairs), forming separate components.
	for k := 0; k < 3; k++ {
		p, _ := tp.PathFor(8, 10, 1, 0, 2, 0)
		q, _ := tp.PathFor(9, 11, 1, 1, 3, 1)
		n.StartFlow(p, 60e9+7e9*float64(k), fmt.Sprintf("d%d", k), FlowFunc(finish))
		n.StartFlow(q, 55e9+9e9*float64(k), fmt.Sprintf("e%d", k), FlowFunc(finish))
	}

	// Mid-run churn: degrade a shared link, make another lossy, fail a
	// spine path (rerouting one member of the class, stalling none), and
	// cancel a flow outright.
	pr, _ := tp.PathFor(6, 12, 2, 0, 1, 0)
	n.StartFlow(pr, 500e9, "reroute-me", &handler{
		done: finish,
		down: func(f *Flow) {
			alt, _ := tp.PathFor(6, 12, 2, 0, 4, 0)
			n.Reroute(f, alt)
		},
	})
	victim := n.StartFlow(func() *topo.Path { p, _ := tp.PathFor(5, 13, 3, 1, 2, 1); return p }(), 900e9, "victim", FlowFunc(finish))

	down := pr.Links[2] // the leaf-up link of spine 1 on rail 2
	eng.Schedule(200*sim.Millisecond, func() { n.SetLinkCapacity(tp.PortAt(4, 0, 0).Down, 120) })
	eng.Schedule(300*sim.Millisecond, func() { n.SetLinkLoss(tp.PortAt(10, 1, 0).Down, 0.05) })
	eng.Schedule(400*sim.Millisecond, func() { n.SetLinkUp(down, false) })
	eng.Schedule(600*sim.Millisecond, func() { n.SetLinkUp(down, true) })
	eng.Schedule(700*sim.Millisecond, func() { n.Cancel(victim) })
	eng.Run()

	tr.bits["n4-down"] = n.CarriedBits(tp.PortAt(4, 0, 0).Down)
	tr.bits["n10-down"] = n.CarriedBits(tp.PortAt(10, 1, 0).Down)
	tr.bits["n0-up"] = n.CarriedBits(tp.PortAt(0, 0, 0).Up)
	tr.cnps = n.CNPCount(tp.PortAt(0, 0, 0))
	tr.fired = eng.Fired()
	return tr
}

// TestKernelsEquivalentOnMixedWorkload is the class kernel's core oath:
// serial or parallel, it replays the per-flow oracle byte for byte.
func TestKernelsEquivalentOnMixedWorkload(t *testing.T) {
	var ref *wtrace
	for _, kv := range kernelVariants {
		tr := runWorkload(kv)
		if ref == nil {
			ref = tr
			continue
		}
		if err := tr.equal(ref); err != nil {
			t.Fatalf("%s kernel diverged from per-flow: %v", kv.name, err)
		}
	}
}

// Link components fill independently: bottleneck shares within
// rateEpsilon of each other in different components do not couple, so each
// component fills at its own share, and every kernel variant — the oracle
// included — agrees on the completions.
func TestNearEqualBottlenecksAcrossComponents(t *testing.T) {
	var ref []sim.Time
	for _, kv := range kernelVariants {
		eng := sim.NewEngine()
		tp := topo.MustNew(topo.PaperTestbed())
		n := kv.build(eng, tp)
		p, _ := tp.PathFor(0, 2, 0, 0, 0, 0)
		q, _ := tp.PathFor(4, 6, 1, 1, 1, 1)
		n.SetLinkCapacity(p.SrcPort.Up, 100)
		n.SetLinkCapacity(q.SrcPort.Up, 100*(1+1e-9))
		var done []sim.Time
		record := func(f *Flow) { done = append(done, eng.Now()) }
		a := n.StartFlow(p, 100e9, "p", FlowFunc(record))
		b := n.StartFlow(q, 100e9, "q", FlowFunc(record))
		eng.RunUntil(sim.Millisecond)
		if a.Rate() != 100e9 || b.Rate() != 100e9*(1+1e-9) {
			t.Fatalf("[%s] near-equal bottlenecks filled at %v and %v, want each component at its own share", kv.name, a.Rate(), b.Rate())
		}
		eng.Run()
		if ref == nil {
			ref = done
		} else if !slices.Equal(done, ref) {
			t.Fatalf("[%s] completions %v, per-flow %v", kv.name, done, ref)
		}
	}
}

// Cancelling one member mid-flight must shrink the class, not kill it:
// the survivors keep flowing and the freed share speeds them up exactly
// like the per-flow oracle says it should.
func TestClassMemberCancelMidClass(t *testing.T) {
	for _, kv := range kernelVariants {
		eng := sim.NewEngine()
		tp := topo.MustNew(topo.PaperTestbed())
		n := kv.build(eng, tp)
		p, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
		var survivorDone sim.Time
		doomed := n.StartFlow(p, 400e9, "doomed", FlowFunc(func(f *Flow) { t.Error("cancelled flow completed") }))
		n.StartFlow(p, 400e9, "survivor", FlowFunc(func(f *Flow) { survivorDone = eng.Now() }))
		eng.Schedule(sim.Second, func() { n.Cancel(doomed) })
		eng.Run()
		// 100 Gbps for 1s (200 shared by 2), then 200 Gbps for the last
		// 300 Gb: done at ~2.5s.
		if !almostEqual(survivorDone.Seconds(), 2.5, 0.01) {
			t.Fatalf("[%s] survivor done at %v, want ~2.5s", kv.name, survivorDone)
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("[%s] %d active flows left", kv.name, n.ActiveFlows())
		}
	}
}

// Rerouting a member must split it out of its class into the class of the
// new chain (created on demand) and merge it with any existing one.
func TestRerouteSplitsClass(t *testing.T) {
	eng, n := testbed()
	tp := n.Topo
	p, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
	alt, _ := tp.PathFor(0, 4, 0, 0, 1, 0)
	a := n.StartFlow(p, 800e9, "a", nil)
	n.StartFlow(p, 800e9, "b", nil)
	eng.RunUntil(100 * sim.Millisecond)
	if n.ClassCount() != 1 {
		t.Fatalf("classes = %d, want 1 before the split", n.ClassCount())
	}
	n.Reroute(a, alt)
	eng.RunUntil(200 * sim.Millisecond)
	if n.ClassCount() != 2 {
		t.Fatalf("classes = %d, want 2 after rerouting one member", n.ClassCount())
	}
	if a.class == nil || len(a.class.members) != 1 {
		t.Fatal("rerouted flow must sit alone in the new chain's class")
	}
	// Rerouting back merges it into the surviving class again.
	n.Reroute(a, p)
	if n.ClassCount() != 1 || len(a.class.members) != 2 {
		t.Fatalf("classes = %d (members %d), want the original class re-merged",
			n.ClassCount(), len(a.class.members))
	}
}

// A link failure must fan PathDown out to every member of every class
// crossing it, in flow admission order, exactly like the per-flow oracle.
func TestOnPathDownFansOutToMembers(t *testing.T) {
	for _, kv := range kernelVariants {
		eng := sim.NewEngine()
		tp := topo.MustNew(topo.PaperTestbed())
		n := kv.build(eng, tp)
		p, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
		var notified []string
		for i := 0; i < 5; i++ {
			n.StartFlow(p, 1e12, fmt.Sprintf("m%d", i), &handler{
				down: func(f *Flow) { notified = append(notified, f.Label) },
			})
		}
		eng.Schedule(sim.Second, func() { n.SetLinkUp(p.SrcPort.Up, false) })
		eng.RunUntil(2 * sim.Second)
		want := []string{"m0", "m1", "m2", "m3", "m4"}
		if len(notified) != len(want) {
			t.Fatalf("[%s] %d notifications, want %d", kv.name, len(notified), len(want))
		}
		for i := range want {
			if notified[i] != want[i] {
				t.Fatalf("[%s] notification order %v, want %v", kv.name, notified, want)
			}
		}
	}
}

// Classes must retire with their last member: after everything completes
// or is cancelled the live class list is empty, while the index keeps one
// dead class per chain for revival.
func TestClassLifecycle(t *testing.T) {
	eng, n := testbed()
	tp := n.Topo
	p, _ := tp.PathFor(0, 2, 0, 0, 0, 0)
	q, _ := tp.PathFor(4, 6, 1, 1, 1, 1)
	if n.ClassCount() != 0 {
		t.Fatalf("classes = %d on a fresh network, want 0", n.ClassCount())
	}
	n.StartFlow(p, 10e9, "a", nil)
	n.StartFlow(p, 20e9, "b", nil)
	c := n.StartFlow(q, 1e12, "c", nil)
	eng.RunUntil(50 * sim.Millisecond)
	if n.ClassCount() != 2 {
		t.Fatalf("classes = %d, want 2 mid-run", n.ClassCount())
	}
	n.Cancel(c)
	eng.Run()
	if n.ClassCount() != 0 {
		t.Fatalf("classes = %d after all flows ended, want 0", n.ClassCount())
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d active flows left", n.ActiveFlows())
	}
	if len(n.classIndex) != 2 {
		t.Fatalf("class index holds %d classes, want one per chain used (2)", len(n.classIndex))
	}
}

// A chain that drains and refills revives its dead class: the same class
// object, re-entering the live list, with no allocation in classAdmit.
func TestClassRevivedWithoutAllocation(t *testing.T) {
	eng, n := testbed()
	p, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	first := n.StartFlow(p, 10e9, "first", nil)
	eng.RunUntil(sim.Millisecond)
	fc := first.class
	eng.Run()
	if !first.Done() || n.ClassCount() != 0 {
		t.Fatalf("done=%v classes=%d, want the flow finished and the network idle", first.Done(), n.ClassCount())
	}
	second := n.StartFlow(p, 10e9, "second", nil)
	eng.RunUntil(eng.Now() + sim.Millisecond)
	if second.class != fc || n.ClassCount() != 1 {
		t.Fatalf("class %p (live %d), want the retired class %p revived", second.class, n.ClassCount(), fc)
	}
	eng.Run()
	f := &Flow{Path: p}
	allocs := testing.AllocsPerRun(100, func() {
		n.classAdmit(f)
		n.classRemove(f)
	})
	if allocs != 0 {
		t.Fatalf("reviving a class allocates %v times, want 0", allocs)
	}
}

// Under tracing, each class lifetime is one span: a chain that drains and
// refills opens a second span rather than reopening the first.
func TestClassSpanPerLifetime(t *testing.T) {
	eng, n := testbed()
	tr := trace.New()
	tr.Bind(eng)
	n.Trace = tr
	p, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	n.StartFlow(p, 10e9, "a", nil)
	n.StartFlow(p, 20e9, "b", nil)
	eng.Run()
	n.StartFlow(p, 10e9, "c", nil)
	eng.Run()
	var classes []*trace.Span
	for _, s := range tr.Spans() {
		if s.Kind == "class" {
			classes = append(classes, s)
		}
	}
	if len(classes) != 2 {
		t.Fatalf("%d class spans, want 2 (one per lifetime)", len(classes))
	}
	if classes[0].Open() || classes[1].Open() || classes[1].Start < classes[0].End {
		t.Fatalf("class spans [%v, %v] and [%v, %v] must be closed and disjoint",
			classes[0].Start, classes[0].End, classes[1].Start, classes[1].End)
	}
}

// ForceSettleWorkers is the replay-test plumbing: it must override the
// settle width of every subsequently built Network until restored.
func TestForceSettleWorkers(t *testing.T) {
	restore := ForceSettleWorkers(3)
	n := New(sim.NewEngine(), topo.MustNew(topo.PaperTestbed()), DefaultConfig())
	if n.Cfg.SettleWorkers != 3 {
		t.Fatalf("forced settle width not applied: %+v", n.Cfg)
	}
	restore()
	cfg := DefaultConfig()
	cfg.SettleWorkers = 2
	if n2 := New(sim.NewEngine(), topo.MustNew(topo.PaperTestbed()), cfg); n2.Cfg.SettleWorkers != 2 {
		t.Fatalf("restore did not clear the override: %+v", n2.Cfg)
	}
}
