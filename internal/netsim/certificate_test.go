package netsim

import (
	"fmt"
	"testing"

	"c4/internal/sim"
)

// certify wraps n's rate kernel so that every recompute is checked against
// the max-min fairness certificate, which any correct allocation meets and
// which needs no second kernel to check. Install it after the kernel
// (usePerFlow for the oracle) and before the first flow is admitted.
func certify(tb testing.TB, n *Network) {
	kernel := n.kernel
	n.kernel = func(n *Network) {
		kernel(n)
		if err := maxMinViolation(n); err != nil {
			tb.Fatalf("recompute %d at %v: %v", n.stats.Recomputes, n.Engine.Now(), err)
		}
	}
}

// maxMinViolation checks the allocation the last recompute left on n's
// active flows and describes the first violation it finds:
//   - no link carries more than its capacity (1e-9 relative slack for
//     rounding);
//   - every flow on a dead path is at rate 0;
//   - every other flow crosses a saturated link — one loaded to within the
//     kernel's 1e-6 CNP saturation slack of its capacity — on which no
//     flow's rate exceeds its own by more than rateEpsilon (relative).
//
// The last clause is the bottleneck property that makes an allocation
// max-min fair: no flow can speed up without slowing a flow that is no
// faster.
func maxMinViolation(n *Network) error {
	load := make([]float64, len(n.Topo.Links))
	fastest := make([]float64, len(n.Topo.Links))
	for _, f := range n.flows {
		if f == nil {
			continue
		}
		if !f.Path.Up() {
			if f.rate != 0 {
				return fmt.Errorf("flow %s on a dead path at rate %v", f.Label, f.rate)
			}
			continue
		}
		for _, l := range f.Path.Links {
			load[l.ID] += f.rate
			fastest[l.ID] = max(fastest[l.ID], f.rate)
		}
	}
	for id, sum := range load {
		if capBits := n.linkCap(id); sum > capBits*(1+1e-9) {
			return fmt.Errorf("link %s carries %v bit/s over its %v capacity", n.Topo.Links[id].Name, sum, capBits)
		}
	}
	for _, f := range n.flows {
		if f == nil || !f.Path.Up() {
			continue
		}
		bottlenecked := false
		for _, l := range f.Path.Links {
			if load[l.ID] >= n.linkCap(l.ID)*(1-1e-6) && fastest[l.ID] <= f.rate*(1+rateEpsilon) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %s at %v bit/s crosses no saturated link it is fastest on", f.Label, f.rate)
		}
	}
	return nil
}

// The certificate must reject allocations that break each clause, or a
// passing run proves nothing.
func TestMaxMinCertificateRejects(t *testing.T) {
	eng, n := testbed()
	p, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
	q, _ := n.Topo.PathFor(2, 4, 0, 0, 1, 0)
	a := n.StartFlow(p, 1e12, "a", nil)
	b := n.StartFlow(q, 1e12, "b", nil)
	eng.RunUntil(sim.Millisecond)
	if err := maxMinViolation(n); err != nil {
		t.Fatalf("kernel allocation rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		ra, rb float64
	}{
		{"over capacity", 150e9, 100e9},
		{"no bottleneck", 50e9, 50e9},
		{"unfair share", 50e9, 150e9},
	} {
		a.rate, b.rate = tc.ra, tc.rb
		if maxMinViolation(n) == nil {
			t.Errorf("%s: allocation %v/%v accepted", tc.name, tc.ra, tc.rb)
		}
	}
	a.rate, b.rate = 100e9, 100e9
	p.Links[2].SetUp(false)
	if maxMinViolation(n) == nil {
		t.Error("dead-path flow at a nonzero rate accepted")
	}
}
