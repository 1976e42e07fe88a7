package netsim

import (
	"testing"

	"c4/internal/sim"
)

// certify fails tb on the first recompute of n whose allocation breaks the
// max-min certificate (CheckMaxMin). Install it before the first flow is
// admitted.
func certify(tb testing.TB, n *Network) {
	n.check = func(err error) { tb.Fatal(err) }
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
	if err := n.CheckMaxMin(); err != nil {
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
		if n.CheckMaxMin() == nil {
			t.Errorf("%s: allocation %v/%v accepted", tc.name, tc.ra, tc.rb)
		}
	}
	a.rate, b.rate = 100e9, 100e9
	p.Links[2].SetUp(false)
	if n.CheckMaxMin() == nil {
		t.Error("dead-path flow at a nonzero rate accepted")
	}
}
