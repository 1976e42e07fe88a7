package netsim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

// TestSettleChargesEveryMember holds settle's per-class accounting to a
// flow-by-flow expectation that does not go through settle: the oracle
// shares settle, so only this test can catch a settle bug. Chain A
// (node 0 to node 2) carries members of unequal sizes, one admitted while
// the others are mid-flight and one cancelled mid-flight; chain B (node 1,
// on node 0's leaf, to node 2) competes with it from another source port,
// so the links the chains share saturate and both ports receive CNPs.
// After the run each link must have carried the bits of the flows that
// crossed it (their sizes, and the cancelled flow's delivered bits, which
// the test integrates from the sampled goodput) and each source port the
// CNPs of its flows (each moving flow's CNP rate times its time at that
// rate), both to a relative 1e-9, and FlowDone must fire in completion
// order, ties in admission order: b1 and a2, started together with equal
// sizes on different chains, drain in one settle, which meets a2's class
// first.
func TestSettleChargesEveryMember(t *testing.T) {
	type flowSpec struct {
		label  string
		chain  int // 0: A, 1: B
		start  sim.Time
		size   float64
		cancel sim.Time // 0: runs to completion
	}
	specs := []flowSpec{
		{"a1", 0, 0, 3e8, 0},
		{"c1", 0, 0, 6e8, 4 * sim.Millisecond},
		{"b0", 1, 0, 4e8, 0},
		{"b1", 1, 2 * sim.Millisecond, 2e8, 0},
		{"a2", 0, 2 * sim.Millisecond, 2e8, 0},
	}
	for _, tc := range []struct {
		name string
		loss float64 // on the leaf up-link both chains cross
	}{
		{"lossless", 0},
		{"lossy shared link", 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, n := testbed()
			tp := n.Topo
			var chains [2]*topo.Path
			for c := range chains {
				p, err := tp.PathFor(c, 2, 0, 0, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				chains[c] = p
			}
			n.SetLinkLoss(chains[0].Links[2], tc.loss)

			// done lists the completions as (instant, index in specs).
			type completion struct {
				at  sim.Time
				idx int
			}
			flows := make([]*Flow, len(specs))
			var done []completion
			for i, s := range specs {
				eng.Schedule(s.start, func() {
					flows[i] = n.StartFlow(chains[s.chain], s.size, s.label, FlowFunc(func(*Flow) {
						done = append(done, completion{eng.Now(), i})
					}))
				})
				if s.cancel > 0 {
					eng.Schedule(s.cancel, func() { n.Cancel(flows[i]) })
				}
			}

			// Rates change only inside events, so between two event
			// instants every flow moves at what it held after the first.
			type moving struct{ good, cnp float64 }
			now := make([]moving, len(specs))
			delivered := make([]float64, len(specs))
			var cnps [2]float64
			last := sim.Time(0)
			for eng.Pending() > 0 {
				at := eng.NextEventAt()
				dt := (at - last).Seconds()
				for i, m := range now {
					if m.good > 0 {
						delivered[i] += m.good * dt
						cnps[specs[i].chain] += m.cnp * dt
					}
				}
				eng.RunUntil(at)
				last = at
				for i, f := range flows {
					now[i] = moving{}
					if f != nil && !f.Done() {
						now[i] = moving{f.goodRate, f.cnpRate}
					}
				}
			}

			want := make([]float64, len(tp.Links))
			for i, s := range specs {
				bits := s.size
				if s.cancel > 0 {
					bits = delivered[i]
					if bits <= 0 || bits >= s.size {
						t.Fatalf("%s delivered %g of %g bits before its cancel: not mid-flight", s.label, bits, s.size)
					}
				}
				for _, l := range chains[s.chain].Links {
					want[l.ID] += bits
				}
			}
			for _, l := range tp.Links {
				if got := n.CarriedBits(l); !relEqual(got, want[l.ID], 1e-9) {
					t.Errorf("%s carried %.6f bits, want %.6f", l.Name, got, want[l.ID])
				}
			}
			for c, p := range chains {
				if cnps[c] <= 0 {
					t.Fatalf("chain %d's port received no CNPs: the shared links never saturated", c)
				}
				if got := n.CNPCount(p.SrcPort); !relEqual(got, cnps[c], 1e-9) {
					t.Errorf("%s received %.9f CNPs, want %.9f", p.SrcPort.Name(), got, cnps[c])
				}
			}

			// specs lists the flows in admission order.
			if len(done) != 4 || !slices.IsSortedFunc(done, func(x, y completion) int {
				return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.idx, y.idx))
			}) {
				t.Fatalf("FlowDone fired %v, want the 4 uncancelled flows in completion order, ties in admission order", done)
			}
			b1 := slices.IndexFunc(done, func(c completion) bool { return specs[c.idx].label == "b1" })
			if a2 := b1 + 1; b1 < 0 || a2 == len(done) || specs[done[a2].idx].label != "a2" || done[a2].at != done[b1].at {
				t.Fatalf("FlowDone fired %v: b1 and a2 did not complete together, so the tie the order check needs did not happen", done)
			}
		})
	}
}

// relEqual reports whether got is within a relative tol of want (exactly
// equal when want is 0).
func relEqual(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= tol*math.Abs(want)
}
