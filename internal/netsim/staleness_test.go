package netsim

import (
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

// Regression test for the read-path staleness bug: SetLinkCapacity batches
// its rate recomputation into an After(0) event, so a reader in the same
// virtual instant — but a later callback — used to observe pre-mutation
// rates. Utilization must reflect the new capacity immediately.
func TestUtilizationFreshAfterSameInstantCapacityChange(t *testing.T) {
	eng, n := testbed()
	p1, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	p2, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
	shared := p1.DstPort.Down // both flows converge on node 4's down-link
	n.StartFlow(p1, 800e9, "a", nil)
	n.StartFlow(p2, 800e9, "b", nil)
	var before, after float64
	eng.Schedule(sim.Second, func() {
		before = n.Utilization(shared)
		n.SetLinkCapacity(shared, 100)
		after = n.Utilization(shared)
	})
	eng.RunUntil(sim.Second)
	if !almostEqual(before, 200e9, 1e6) {
		t.Fatalf("pre-mutation utilization = %g, want 200e9", before)
	}
	if !almostEqual(after, 100e9, 1e6) {
		t.Fatalf("same-instant post-mutation utilization = %g, want 100e9 (stale read)", after)
	}
}

// A same-instant reader after a link failure must see the stalled rates,
// and after StartFlow admission must see the admitted flow's allocation.
func TestObservablesFreshAcrossSameInstantMutations(t *testing.T) {
	eng, n := testbed()
	p, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	up := p.SrcPort.Up
	n.StartFlow(p, 800e9, "a", nil)
	// Readback at the admission instant: the flow is admitted in an earlier
	// callback of the same instant, its recompute still pending.
	var atAdmit float64
	eng.Schedule(n.Cfg.BaseLatency, func() { atAdmit = n.Utilization(up) })
	var atFail float64
	eng.Schedule(sim.Second, func() {
		n.SetLinkUp(up, false)
		atFail = n.Utilization(up)
	})
	eng.RunUntil(sim.Second)
	if !almostEqual(atAdmit, 200e9, 1e6) {
		t.Fatalf("utilization at admission instant = %g, want 200e9", atAdmit)
	}
	if atFail != 0 {
		t.Fatalf("utilization in the failure callback = %g, want 0", atFail)
	}
}

// CarriedBits read in the same instant as a capacity change must agree
// with the (unchanged) pre-mutation delivery, and the flush that makes
// that true must not disturb the run: a run with same-instant readers is
// byte-identical (completion times and event counts) to one without.
func TestReadPathFlushDoesNotPerturbRun(t *testing.T) {
	run := func(withReaders bool) (done []sim.Time, fired uint64, bits float64) {
		eng, n := testbed()
		p1, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
		p2, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
		shared := p1.DstPort.Down
		specs := []struct {
			p    *topo.Path
			size float64
		}{{p1, 400e9}, {p2, 700e9}}
		done = make([]sim.Time, len(specs))
		for i, s := range specs {
			i := i
			n.StartFlow(s.p, s.size, "f", FlowFunc(func(f *Flow) { done[i] = eng.Now() }))
		}
		eng.Schedule(sim.Second, func() {
			n.SetLinkCapacity(shared, 150)
			if withReaders {
				bits = n.CarriedBits(shared)
				_ = n.Utilization(shared)
				_ = n.CNPCount(p1.SrcPort)
			}
		})
		eng.Run()
		return done, eng.Fired(), bits
	}
	d1, f1, bits := run(true)
	d2, f2, _ := run(false)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("flow %d completion %v with readers vs %v without", i, d1[i], d2[i])
		}
	}
	if f1 != f2 {
		t.Fatalf("fired %d events with readers vs %d without", f1, f2)
	}
	// 2 flows at 100 Gbps each for ~1s minus 10µs admission latency.
	if !almostEqual(bits, 200e9, 1e7) {
		t.Fatalf("carried bits at mutation instant = %g, want ~200e9", bits)
	}
}

// Regression test for event-heap churn: every recompute used to cancel and
// recreate the completion event, so a reroute-heavy run (C4P's dynamic
// load balance reroutes constantly) leaked one dead event per recompute
// into the engine heap. With in-place rescheduling the queue stays bounded
// by the handful of genuinely live events.
func TestRerouteChurnKeepsQueueBounded(t *testing.T) {
	eng, n := testbed()
	pa, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	pb, _ := n.Topo.PathFor(0, 4, 0, 0, 1, 0)
	f := n.StartFlow(pa, 1e15, "churn", nil) // far from completing
	maxPending := 0
	const reroutes = 5000
	var step func(i int)
	step = func(i int) {
		if p := eng.Pending(); p > maxPending {
			maxPending = p
		}
		if i >= reroutes || f.Done() {
			n.Cancel(f)
			return
		}
		if i%2 == 0 {
			n.Reroute(f, pb)
		} else {
			n.Reroute(f, pa)
		}
		eng.After(sim.Millisecond, func() { step(i + 1) })
	}
	eng.After(sim.Millisecond, func() { step(0) })
	eng.Run()
	if maxPending > 16 {
		t.Fatalf("pending events peaked at %d during %d reroutes, want a bounded handful", maxPending, reroutes)
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after run", eng.Pending())
	}
}
