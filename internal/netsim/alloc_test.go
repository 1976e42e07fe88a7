package netsim

import (
	"fmt"
	"testing"
	"unsafe"

	"c4/internal/sim"
	"c4/internal/topo"
)

// settle walks every active Flow at every completion and mutation, and
// every Flow keeps its admission Event beside it: neither struct may grow.
func TestFlowAndEventSizes(t *testing.T) {
	if got := unsafe.Sizeof(Flow{}); got > 128 {
		t.Errorf("netsim.Flow is %d bytes, must stay at most 128", got)
	}
	if got := unsafe.Sizeof(sim.Event{}); got > 48 {
		t.Errorf("sim.Event is %d bytes, must stay at most 48", got)
	}
}

// A flow that is started, admitted and completed on a warm network
// allocates nothing: StartFlow reuses the Flow the previous run completed
// and re-arms its admission Event, admission and completion are handler
// calls, and the recompute and completion events are the network's own,
// re-armed in place.
func TestFlowLifecycleAllocs(t *testing.T) {
	eng, n := testbed()
	p, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	done := 0
	h := FlowFunc(func(*Flow) { done++ })
	var f *Flow
	run := func() {
		f = n.StartFlow(p, 1e9, "x", h)
		eng.Run()
	}
	run()
	// The completed flow waits on the free list holding no pointer into
	// the caller's objects, still reporting Done, and is the next one out.
	first := f
	if n.free != first || first.Path != nil || first.h != nil || first.span != nil || !first.Done() {
		t.Fatalf("completed flow: on free list %v, path %v, handler %v, done %v; want recycled with nil path and handler",
			n.free == first, first.Path, first.h, first.Done())
	}
	if run(); f != first {
		t.Fatal("StartFlow on a warm network did not reuse the completed flow")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("start, admit and complete one warm flow: %v allocs, want 0", allocs)
	}
	if done != 103 {
		t.Fatalf("%d flows completed, want 103", done)
	}
}

// routeByLists is the reference for Route's picks: the same forwarding
// rules, written with candidate lists.
func routeByLists(t *topo.Topology, srcNode, dstNode, rail, srcPlane int, sport uint16) (*topo.Path, error) {
	if srcNode == dstNode {
		return nil, fmt.Errorf("netsim: route from node %d to itself", srcNode)
	}
	src := t.PortAt(srcNode, rail, srcPlane)
	if t.Group(srcNode) == t.Group(dstNode) {
		return t.PathFor(srcNode, dstNode, rail, srcPlane, -1, srcPlane)
	}
	var spines []int
	for s, up := range src.Leaf.Ups {
		if up.Up() {
			spines = append(spines, s)
		}
	}
	if len(spines) == 0 {
		return nil, fmt.Errorf("netsim: leaf %s has no healthy uplinks", src.Leaf.Name())
	}
	spine := spines[int(hash5(srcNode, dstNode, rail, srcPlane, int(sport), 1)%uint64(len(spines)))]
	dstGroup := t.Group(dstNode)
	var planes []int
	for q := 0; q < topo.Planes; q++ {
		leaf := t.LeafAt(rail, q, dstGroup)
		if leaf.Downs[spine].Up() && t.PortAt(dstNode, rail, q).Down.Up() {
			planes = append(planes, q)
		}
	}
	if len(planes) == 0 {
		return nil, fmt.Errorf("netsim: spine %d has no healthy downlink to node %d", spine, dstNode)
	}
	dstPlane := planes[int(hash5(srcNode, dstNode, rail, srcPlane, int(sport), 2)%uint64(len(planes)))]
	return t.PathFor(srcNode, dstNode, rail, srcPlane, spine, dstPlane)
}

// Route picks exactly the spine and destination plane the candidate lists
// picked, error or not, on a fabric whose links fail a few at a time.
func TestRouteMatchesCandidateLists(t *testing.T) {
	tp := topo.MustNew(topo.PaperTestbed())
	r := sim.NewRand(7)
	for round := 0; round < 40; round++ {
		for _, l := range tp.Links {
			l.SetUp(r.Float64() > 0.02*float64(round%10))
		}
		for q := 0; q < 200; q++ {
			src, dst := r.Intn(tp.Spec.Nodes), r.Intn(tp.Spec.Nodes)
			rail, plane, sport := r.Intn(tp.Spec.Rails), r.Intn(topo.Planes), uint16(r.Intn(1<<16))
			got, gotErr := Route(tp, src, dst, rail, plane, sport)
			want, wantErr := routeByLists(tp, src, dst, rail, plane, sport)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("Route(%d,%d,%d,%d,%d) error %v, want %v", src, dst, rail, plane, sport, gotErr, wantErr)
			}
			if gotErr == nil && got.String() != want.String() {
				t.Fatalf("Route(%d,%d,%d,%d,%d) = %v, want %v", src, dst, rail, plane, sport, got, want)
			}
		}
	}
}
