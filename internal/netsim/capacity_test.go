package netsim

import (
	"testing"

	"c4/internal/sim"
)

func TestSetLinkCapacityReallocates(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	var done sim.Time
	n.StartFlow(path, 200e9, "x", FlowFunc(func(f *Flow) { done = eng.Now() }))
	// Halve the source port's capacity halfway through: 0.5 s at 200 Gbps
	// moves 100 Gb, the remaining 100 Gb drains at 100 Gbps in 1 s.
	eng.After(500*sim.Millisecond, func() {
		n.SetLinkCapacity(path.SrcPort.Up, 100)
	})
	eng.Run()
	if !almostEqual(done.Seconds(), 1.5, 0.02) {
		t.Fatalf("done at %v, want ~1.5s", done)
	}
}

func TestSetLinkCapacityZeroStalls(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	done := false
	n.StartFlow(path, 200e9, "x", FlowFunc(func(*Flow) { done = true }))
	eng.After(100*sim.Millisecond, func() {
		n.SetLinkCapacity(path.SrcPort.Up, -5) // clamps to 0
	})
	eng.RunUntil(10 * sim.Second)
	if done {
		t.Fatal("flow completed through a zero-capacity link")
	}
	// Restoring capacity lets it finish.
	n.SetLinkCapacity(path.SrcPort.Up, 200)
	eng.RunUntil(20 * sim.Second)
	if !done {
		t.Fatal("flow did not resume after capacity restore")
	}
}

func TestUtilizationAndFlowsOn(t *testing.T) {
	eng, n := testbed()
	p1, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	p2, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
	n.StartFlow(p1, 1e12, "a", nil)
	n.StartFlow(p2, 1e12, "b", nil)
	eng.RunUntil(10 * sim.Millisecond)
	shared := p1.DstPort.Down
	if got := n.FlowsOn(shared); got != 2 {
		t.Fatalf("FlowsOn = %d, want 2", got)
	}
	if got := n.Utilization(shared); !almostEqual(got, 200e9, 1e6) {
		t.Fatalf("utilization = %.3g, want 200e9", got)
	}
	// A link carrying nothing reports zero.
	idle := n.Topo.PortAt(6, 3, 1).Up
	if n.FlowsOn(idle) != 0 || n.Utilization(idle) != 0 {
		t.Fatal("idle link reports traffic")
	}
}

func TestZeroSizeControlMessage(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	var done sim.Time
	n.StartFlow(path, 0, "ctl", FlowFunc(func(*Flow) { done = eng.Now() }))
	eng.Run()
	if done == 0 {
		t.Fatal("control message never delivered")
	}
	if done > sim.Millisecond {
		t.Fatalf("control message took %v, want ≈latency", done)
	}
}

// A link degraded to a trickle leaves its flow a drain time beyond
// sim.MaxTime: that is no completion at all, not an ETA that wraps
// negative and re-arms the completion event every nanosecond. The flow
// completes once capacity is restored. A late clock must not wrap the
// completion instant either.
func TestTrickleCapacitySchedulesNoCompletion(t *testing.T) {
	for _, start := range []sim.Time{0, 200 * 365 * sim.Day} {
		eng, n := testbed()
		eng.RunUntil(start)
		path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
		var done sim.Time
		n.StartFlow(path, 1e12, "x", FlowFunc(func(*Flow) { done = eng.Now() }))
		eng.RunUntil(start + sim.Millisecond)
		n.SetLinkCapacity(path.SrcPort.Up, 1e-9) // 1 bit/s: ~31,700 years to drain
		before := eng.Fired()
		eng.RunUntil(start + 2*sim.Millisecond)
		if fired := eng.Fired() - before; fired > 4 {
			t.Fatalf("start %v: %d events in the 1ms after the degrade, want a handful", start, fired)
		}
		n.SetLinkCapacity(path.SrcPort.Up, 200)
		eng.Run()
		// 0.2 Gb moved in the first ms; the rest drains at 200 Gbps.
		if want := start.Seconds() + 0.002 + (1e12-0.2e9)/200e9; !almostEqual(done.Seconds(), want, 1e-3) {
			t.Fatalf("start %v: done at %v, want %.4fs", start, done, want)
		}
	}
}
