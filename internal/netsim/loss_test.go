package netsim

import (
	"testing"

	"c4/internal/sim"
)

func TestLinkLossStretchesCompletion(t *testing.T) {
	eng, n := testbed()
	path, err := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half the packets silently vanish on the first fabric hop: the flow
	// still occupies 200 Gbps of wire, but delivers at 100 Gbps.
	n.SetLinkLoss(path.Links[1], 0.5)
	var doneAt sim.Time
	n.StartFlow(path, 200e9, "lossy", FlowFunc(func(f *Flow) { doneAt = eng.Now() }))
	eng.Run()
	if !almostEqual(doneAt.Seconds(), 2.0, 0.01) {
		t.Fatalf("completion at %v, want ~2s (1s payload at 50%% loss)", doneAt)
	}
}

func TestLinkLossCompoundsAcrossHops(t *testing.T) {
	eng, n := testbed()
	path, err := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLinkLoss(path.Links[1], 0.5)
	n.SetLinkLoss(path.Links[2], 0.5)
	var doneAt sim.Time
	n.StartFlow(path, 200e9, "lossy", FlowFunc(func(f *Flow) { doneAt = eng.Now() }))
	eng.Run()
	// Goodput factor (1-0.5)^2 = 0.25 -> ~4 s.
	if !almostEqual(doneAt.Seconds(), 4.0, 0.01) {
		t.Fatalf("completion at %v, want ~4s", doneAt)
	}
}

func TestLinkLossClearedMidFlight(t *testing.T) {
	eng, n := testbed()
	path, err := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy := path.Links[1]
	n.SetLinkLoss(lossy, 0.5)
	var doneAt sim.Time
	n.StartFlow(path, 200e9, "healing", FlowFunc(func(f *Flow) { doneAt = eng.Now() }))
	// After 1 s the link heals: 100 Gb delivered, 100 Gb to go at full rate.
	eng.Schedule(sim.Second, func() { n.SetLinkLoss(lossy, 0) })
	eng.Run()
	if got := n.LinkLoss(lossy); got != 0 {
		t.Fatalf("LinkLoss after clear = %v, want 0", got)
	}
	if !almostEqual(doneAt.Seconds(), 1.5, 0.01) {
		t.Fatalf("completion at %v, want ~1.5s", doneAt)
	}
}

func TestLinkLossDoesNotAffectOtherPaths(t *testing.T) {
	eng, n := testbed()
	lossy, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	clean, _ := n.Topo.PathFor(4, 6, 0, 0, 1, 0)
	n.SetLinkLoss(lossy.Links[1], 0.9)
	var doneAt sim.Time
	n.StartFlow(clean, 200e9, "clean", FlowFunc(func(f *Flow) { doneAt = eng.Now() }))
	eng.Run()
	if !almostEqual(doneAt.Seconds(), 1.0, 0.01) {
		t.Fatalf("clean flow finished at %v, want ~1s", doneAt)
	}
}

func TestLinkLossClamped(t *testing.T) {
	_, n := testbed()
	l := n.Topo.Links[0]
	n.SetLinkLoss(l, -0.5)
	if got := n.LinkLoss(l); got != 0 {
		t.Fatalf("negative loss clamped to %v, want 0", got)
	}
	n.SetLinkLoss(l, 1.5)
	if got := n.LinkLoss(l); got != 0.99 {
		t.Fatalf("excess loss clamped to %v, want 0.99", got)
	}
}

func TestGoodputReporting(t *testing.T) {
	eng, n := testbed()
	path, _ := n.Topo.PathFor(0, 2, 0, 0, 0, 0)
	n.SetLinkLoss(path.Links[1], 0.25)
	f := n.StartFlow(path, 1e12, "g", nil)
	eng.RunUntil(sim.Second)
	if f.Rate() <= 0 {
		t.Fatal("flow has no rate")
	}
	if !almostEqual(f.Goodput(), f.Rate()*0.75, 1) {
		t.Fatalf("goodput %v, rate %v, want 0.75 ratio", f.Goodput(), f.Rate())
	}
}
