package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"c4/internal/sim"
	"c4/internal/topo"
)

func testbed() (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	t := topo.MustNew(topo.PaperTestbed())
	return eng, New(eng, t)
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// handler is a FlowHandler built from two funcs, either of which may be
// nil.
type handler struct{ done, down func(*Flow) }

func (h *handler) FlowDone(f *Flow) {
	if h.done != nil {
		h.done(f)
	}
}

func (h *handler) PathDown(f *Flow) {
	if h.down != nil {
		h.down(f)
	}
}

func TestSingleFlowCompletionTime(t *testing.T) {
	eng, n := testbed()
	path, err := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	size := 200e9 * 1.0 // 200 Gb -> 1 s at 200 Gbps
	n.StartFlow(path, size, "t", FlowFunc(func(f *Flow) { doneAt = eng.Now() }))
	eng.Run()
	want := BaseLatency + sim.Second
	if doneAt < want-sim.Millisecond || doneAt > want+sim.Millisecond {
		t.Fatalf("completion at %v, want ~%v", doneAt, want)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	eng, n := testbed()
	// Two flows from different source nodes converging on the same
	// destination port: bottleneck is the dst node-down link (200 Gbps).
	p1, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	p2, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
	var t1, t2 sim.Time
	size := 200e9 // 1 s alone
	n.StartFlow(p1, size, "a", FlowFunc(func(f *Flow) { t1 = eng.Now() }))
	n.StartFlow(p2, size, "b", FlowFunc(func(f *Flow) { t2 = eng.Now() }))
	eng.Run()
	// Shared at 100 Gbps each -> ~2 s.
	if !almostEqual(t1.Seconds(), 2.0, 0.01) || !almostEqual(t2.Seconds(), 2.0, 0.01) {
		t.Fatalf("completions %v %v, want ~2s", t1, t2)
	}
}

func TestEarlyFinisherReleasesBandwidth(t *testing.T) {
	eng, n := testbed()
	p1, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	p2, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
	var tShort, tLong sim.Time
	n.StartFlow(p1, 100e9, "short", FlowFunc(func(f *Flow) { tShort = eng.Now() }))
	n.StartFlow(p2, 200e9, "long", FlowFunc(func(f *Flow) { tLong = eng.Now() }))
	eng.Run()
	// Both at 100 Gbps until short finishes at 1 s; long then has 100 Gb
	// left at 200 Gbps -> finishes at ~1.5 s.
	if !almostEqual(tShort.Seconds(), 1.0, 0.01) {
		t.Fatalf("short done at %v, want ~1s", tShort)
	}
	if !almostEqual(tLong.Seconds(), 1.5, 0.01) {
		t.Fatalf("long done at %v, want ~1.5s", tLong)
	}
}

func TestDisjointFlowsDontInterfere(t *testing.T) {
	eng, n := testbed()
	p1, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	p2, _ := n.Topo.PathFor(4, 6, 1, 1, 1, 1)
	var t1, t2 sim.Time
	n.StartFlow(p1, 200e9, "a", FlowFunc(func(f *Flow) { t1 = eng.Now() }))
	n.StartFlow(p2, 200e9, "b", FlowFunc(func(f *Flow) { t2 = eng.Now() }))
	eng.Run()
	if !almostEqual(t1.Seconds(), 1.0, 0.01) || !almostEqual(t2.Seconds(), 1.0, 0.01) {
		t.Fatalf("disjoint flows slowed down: %v %v", t1, t2)
	}
}

func TestNVLinkCapsIntraNode(t *testing.T) {
	eng, n := testbed()
	p := n.Topo.IntraNodePath(0)
	var done sim.Time
	n.StartFlow(p, 362e9, "nv", FlowFunc(func(f *Flow) { done = eng.Now() }))
	eng.Run()
	if !almostEqual(done.Seconds(), 1.0, 0.01) {
		t.Fatalf("NVLink transfer took %v, want ~1s at 362 Gbps", done)
	}
}

func TestLinkFailureStallsAndRecovers(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 3, 0)
	var done sim.Time
	notified := false
	n.StartFlow(path, 200e9, "x", &handler{
		done: func(*Flow) { done = eng.Now() },
		down: func(*Flow) { notified = true },
	})
	up := path.SrcPort.Leaf.Ups[3]
	eng.After(500*sim.Millisecond, func() { n.SetLinkUp(up, false) })
	eng.After(1500*sim.Millisecond, func() { n.SetLinkUp(up, true) })
	eng.Run()
	if !notified {
		t.Fatal("PathDown not called")
	}
	// ~0.5 s transferred before failure, stalled 1 s, ~0.5 s after.
	if !almostEqual(done.Seconds(), 2.0, 0.02) {
		t.Fatalf("done at %v, want ~2s", done)
	}
}

func TestRerouteOnFailure(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 3, 0)
	var done sim.Time
	n.StartFlow(path, 200e9, "x", &handler{
		done: func(*Flow) { done = eng.Now() },
		down: func(fl *Flow) {
			alt, err := n.Topo.PathFor(0, 2, 0, 0, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			n.Reroute(fl, alt)
		},
	})
	eng.After(500*sim.Millisecond, func() {
		n.SetLinkUp(path.SrcPort.Leaf.Ups[3], false)
	})
	eng.Run()
	if !almostEqual(done.Seconds(), 1.0, 0.02) {
		t.Fatalf("rerouted flow done at %v, want ~1s", done)
	}
}

// A flow cancelled while it waits for admission, or after it, never
// completes and is never recycled: later flows that start and complete
// around it never get its struct.
func TestCancel(t *testing.T) {
	for _, at := range []sim.Time{0, 100 * sim.Millisecond} {
		eng, n := testbed()
		path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
		fired := false
		f := n.StartFlow(path, 200e9, "x", FlowFunc(func(*Flow) { fired = true }))
		other := n.StartFlow(path, 1e9, "other", nil)
		eng.After(at, func() { n.Cancel(f) })
		eng.Run()
		if fired {
			t.Fatalf("cancel at %v: cancelled flow completed", at)
		}
		if !f.Done() {
			t.Fatalf("cancel at %v: cancelled flow not marked done", at)
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("cancel at %v: flows remain: %d", at, n.ActiveFlows())
		}
		for i := 0; i < 3; i++ {
			g, h := n.StartFlow(path, 1e9, "g", nil), n.StartFlow(path, 1e9, "h", nil)
			if g == f || h == f {
				t.Fatalf("cancel at %v: StartFlow returned the cancelled flow", at)
			}
			if i == 0 && g != other {
				t.Fatalf("cancel at %v: StartFlow did not reuse the completed flow", at)
			}
			eng.Run()
		}
	}
}

func TestCarriedBitsAccounting(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	n.StartFlow(path, 100e9, "x", nil)
	eng.Run()
	for _, l := range path.Links {
		got := n.CarriedBits(l)
		if !almostEqual(got, 100e9, 1e6) {
			t.Fatalf("link %s carried %.3g bits, want 1e11", l.Name, got)
		}
	}
}

func TestCNPOnSaturatedSharedLink(t *testing.T) {
	eng, n := testbed()
	p1, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	p2, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
	n.StartFlow(p1, 400e9, "a", nil)
	n.StartFlow(p2, 400e9, "b", nil)
	eng.RunUntil(2 * sim.Second)
	c1 := n.CNPCount(p1.SrcPort)
	c2 := n.CNPCount(p2.SrcPort)
	if c1 <= 0 || c2 <= 0 {
		t.Fatalf("expected CNPs on both senders, got %v %v", c1, c2)
	}
	// Contention factor (2-1)/2 = 0.5 -> 3.75k/s over ~2s ≈ 7.5k.
	if c1 < 5e3 || c1 > 10e3 {
		t.Fatalf("CNP count %v, want ≈7.5k", c1)
	}
}

func TestNoCNPWithoutContention(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	n.StartFlow(path, 400e9, "solo", nil)
	eng.RunUntil(1 * sim.Second)
	if got := n.CNPCount(path.SrcPort); got != 0 {
		t.Fatalf("solo flow received %v CNPs", got)
	}
}

func TestRouteDeterminismAndValidity(t *testing.T) {
	top := topo.MustNew(topo.PaperTestbed())
	p1, err := Route(top, 0, 5, 2, 0, 1234)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Route(top, 0, 5, 2, 0, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Fatalf("same sport routed differently: %v vs %v", p1, p2)
	}
	if p1.SrcPort.Plane != 0 {
		t.Fatal("source plane not honored")
	}
}

func TestRouteSpreadsOverSpines(t *testing.T) {
	top := topo.MustNew(topo.PaperTestbed())
	seen := map[int]bool{}
	for sport := 0; sport < 256; sport++ {
		p, err := Route(top, 0, 5, 0, 0, uint16(sport))
		if err != nil {
			t.Fatal(err)
		}
		seen[p.Spine.Index] = true
	}
	if len(seen) < top.Spec.Spines {
		t.Fatalf("256 sports hit only %d/%d spines", len(seen), top.Spec.Spines)
	}
}

func TestRouteAvoidsDeadUplink(t *testing.T) {
	top := topo.MustNew(topo.PaperTestbed())
	leaf := top.PortAt(0, 0, 0).Leaf
	leaf.Ups[0].SetUp(false)
	for sport := 0; sport < 128; sport++ {
		p, err := Route(top, 0, 5, 0, 0, uint16(sport))
		if err != nil {
			t.Fatal(err)
		}
		if p.Spine.Index == 0 {
			t.Fatal("routed over a dead uplink")
		}
	}
}

func TestRouteSameGroupDirect(t *testing.T) {
	top := topo.MustNew(topo.PaperTestbed())
	p, err := Route(top, 0, 1, 0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !p.SameLeaf() || p.DstPort.Plane != 1 {
		t.Fatalf("same-group route should stay under the leaf: %v", p)
	}
}

func TestRouteErrors(t *testing.T) {
	top := topo.MustNew(topo.PaperTestbed())
	if _, err := Route(top, 3, 3, 0, 0, 0); err == nil {
		t.Fatal("route to self should fail")
	}
	leaf := top.PortAt(0, 0, 0).Leaf
	for _, up := range leaf.Ups {
		up.SetUp(false)
	}
	if _, err := Route(top, 0, 5, 0, 0, 0); err == nil {
		t.Fatal("route with no healthy uplinks should fail")
	}
}

// Property: max-min allocation never oversubscribes a link, never gives a
// flow zero when its path is healthy and shared fairly, and passes the
// max-min certificate.
func TestMaxMinFairnessProperty(t *testing.T) {
	f := func(seed int64, flowCount uint8) bool {
		eng := sim.NewEngine()
		top := topo.MustNew(topo.PaperTestbed())
		n := New(eng, top)
		r := sim.NewRand(seed)
		count := int(flowCount%12) + 2
		var flows []*Flow
		for i := 0; i < count; i++ {
			src := r.Intn(top.Spec.Nodes)
			dst := r.Intn(top.Spec.Nodes)
			if dst == src {
				dst = (dst + 1) % top.Spec.Nodes
			}
			p, err := Route(top, src, dst, r.Intn(top.Spec.Rails), r.Intn(2), uint16(r.Intn(65536)))
			if err != nil {
				return false
			}
			flows = append(flows, n.StartFlow(p, 1e15, "f", nil))
		}
		eng.RunUntil(sim.Millisecond) // admit + allocate
		for _, fl := range flows {
			if fl.Rate() <= 0 {
				return false // healthy shared paths must get bandwidth
			}
		}
		// No link oversubscribed, and every flow bottlenecked.
		return n.CheckMaxMin() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bits delivered equals flow size regardless of competing
// traffic (conservation).
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		top := topo.MustNew(topo.PaperTestbed())
		n := New(eng, top)
		r := sim.NewRand(seed)
		total := 0.0
		delivered := 0.0
		for i := 0; i < 6; i++ {
			src := r.Intn(top.Spec.Nodes)
			dst := (src + 1 + r.Intn(top.Spec.Nodes-1)) % top.Spec.Nodes
			p, err := Route(top, src, dst, 0, r.Intn(2), uint16(r.Intn(65536)))
			if err != nil {
				return false
			}
			size := 1e9 * (1 + r.Float64()*10)
			total += size
			n.StartFlow(p, size, "f", FlowFunc(func(fl *Flow) { delivered += fl.SizeBits() }))
		}
		eng.Run()
		return almostEqual(delivered, total, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStartFlowOntoDownPathNotifies(t *testing.T) {
	eng, n := testbed()
	// The path's spine uplink is already dead when the flow is submitted:
	// admission must still fire PathDown (SetLinkUp only notifies flows
	// that exist at failure time), so the handler can reroute instead of
	// the flow silently stalling at rate zero forever.
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 3, 0)
	n.SetLinkUp(path.SrcPort.Leaf.Ups[3], false)
	var done sim.Time
	notified := false
	n.StartFlow(path, 200e9, "x", &handler{
		done: func(*Flow) { done = eng.Now() },
		down: func(fl *Flow) {
			notified = true
			alt, err := n.Topo.PathFor(0, 2, 0, 0, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			n.Reroute(fl, alt)
		},
	})
	eng.Run()
	if !notified {
		t.Fatal("PathDown not fired for a flow admitted onto a down path")
	}
	if done == 0 {
		t.Fatal("rerouted flow never completed")
	}
}

func TestStartFlowOntoDownPathCancelInHandler(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 3, 0)
	n.SetLinkUp(path.SrcPort.Leaf.Ups[3], false)
	completed := false
	f := n.StartFlow(path, 200e9, "x", &handler{
		done: func(*Flow) { completed = true },
		down: func(fl *Flow) { n.Cancel(fl) },
	})
	eng.Run()
	if completed {
		t.Fatal("cancelled flow completed")
	}
	if !f.Done() || n.ActiveFlows() != 0 {
		t.Fatalf("done=%v active=%d, want cancelled and removed", f.Done(), n.ActiveFlows())
	}
}

func TestCancelMidWindowSettlesCarriedBits(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	f := n.StartFlow(path, 200e9, "x", nil)
	eng.After(500*sim.Millisecond, func() { n.Cancel(f) })
	eng.Run()
	// The flow ran alone at 200 Gbps from admission (BaseLatency) until the
	// mid-window cancellation at 500 ms. Cancel must settle that window
	// before removing the flow, or the delivered bits vanish from the
	// per-link counters.
	want := 200e9 * (0.5 - BaseLatency.Seconds())
	for _, l := range path.Links {
		if got := n.CarriedBits(l); !almostEqual(got, want, 1e6) {
			t.Fatalf("link %s carried %.6g bits after mid-window cancel, want %.6g",
				l.Name, got, want)
		}
	}
}

func TestCancelFromOnCompleteSuppressesBatchmate(t *testing.T) {
	eng, n := testbed()
	// Three identical flows complete at the same instant; the second
	// flow's completion handler cancels the third and starts two new
	// flows. The cancelled flow must not have its own OnComplete invoked —
	// the contract per-flow completion events used to give, preserved by
	// the batched completion event — and must not come back from
	// StartFlow while it waits in the wave, though the already completed
	// first flow may.
	path, err := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var third *Flow
	var started []*Flow
	thirdFired := false
	secondFired := false
	first := n.StartFlow(path, 1e9, "first", nil)
	second := n.StartFlow(path, 1e9, "second", FlowFunc(func(*Flow) {
		secondFired = true
		n.Cancel(third)
		started = append(started, n.StartFlow(path, 1e9, "a", nil), n.StartFlow(path, 1e9, "b", nil))
	}))
	third = n.StartFlow(path, 1e9, "third", FlowFunc(func(*Flow) { thirdFired = true }))
	eng.Run()
	if !secondFired {
		t.Fatal("second flow never completed")
	}
	if !second.Done() || !third.Done() {
		t.Fatal("both flows should be done (one completed, one cancelled)")
	}
	if thirdFired {
		t.Fatal("cancelled flow's OnComplete fired")
	}
	if started[0] != first || started[1] == third || started[1] == second {
		t.Fatalf("flows started in the wave reused %p and %p; want the first flow %p, then a new struct (second %p, cancelled %p)",
			started[0], started[1], first, second, third)
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("active flows = %d, want 0", n.ActiveFlows())
	}
}
