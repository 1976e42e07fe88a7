package accl

import (
	"math"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

func TestStepwiseEmitsPerStepMessages(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{Stepwise: true}, []int{0, 2, 4, 6})
	c.AllReduce(64*MiB, nil, nil)
	h.eng.Run()
	// 4 edges × 2(M-1)=6 steps × 2 QPs = 48 transport records.
	if got := len(h.rec.Messages); got != 48 {
		t.Fatalf("messages = %d, want 48", got)
	}
	// Sequence numbers all belong to op 1; per (edge,QP) the records are
	// time-ordered.
	type key struct{ src, dst, qpn int }
	last := map[key]sim.Time{}
	for _, m := range h.rec.Messages {
		if m.Seq != 1 {
			t.Fatalf("unexpected seq %d", m.Seq)
		}
		k := key{m.SrcNode, m.DstNode, m.QPN}
		if m.End < last[k] {
			t.Fatalf("per-QP records out of order for %+v", k)
		}
		last[k] = m.End
	}
}

func TestStepwiseConservesBytes(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{Stepwise: true}, []int{0, 2, 4, 6})
	size := float64(64 * MiB)
	var res Result
	c.AllReduce(size, nil, func(r Result) { res = r })
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("stepwise allreduce never completed")
	}
	var total float64
	for _, m := range h.rec.Messages {
		total += m.Bytes
	}
	n := c.TotalGPUs()
	want := size * 2 * float64(n-1) / float64(n) * 4
	if math.Abs(total-want)/want > 1e-6 {
		t.Fatalf("stepwise carried %.0f bytes, want %.0f", total, want)
	}
}

func TestStepwiseCrashedNodeStallsRing(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{Stepwise: true}, []int{0, 2, 4, 6})
	c.SetCrashed(2, true)
	done := false
	c.AllReduce(64*MiB, nil, func(Result) { done = true })
	h.eng.RunUntil(time30s())
	if done {
		t.Fatal("stepwise op completed with crashed member")
	}
	// Edges not touching node 2 may progress a bounded number of steps
	// (pipeline depth), then the dependency chain stalls everyone.
	for _, m := range h.rec.Messages {
		if m.SrcNode == 2 || m.DstNode == 2 {
			t.Fatalf("crashed node moved data: %+v", m)
		}
	}
}

func time30s() sim.Time { return 30 * sim.Second }

func TestStepwiseStragglerPropagatesThroughChain(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{Stepwise: true}, []int{0, 2, 4, 6})
	delay := 300 * sim.Millisecond
	arr := []sim.Time{0, delay, 0, 0}
	var res Result
	c.AllReduce(64*MiB, arr, func(r Result) { res = r })
	h.eng.Run()
	if res.End < delay {
		t.Fatalf("op finished before straggler arrived: %v", res.End)
	}
	// The wait chain must blame node 2 (communicator index 1).
	blamed := false
	for _, w := range h.rec.Waits {
		if w.On == 2 {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("no wait event blames the straggler: %+v", h.rec.Waits)
	}
}

func TestStepwiseReduceScatterAndAllGather(t *testing.T) {
	for _, op := range []string{"rs", "ag"} {
		h := newHarness()
		c := h.comm(t, Config{Stepwise: true}, []int{0, 2, 4, 6})
		var res Result
		switch op {
		case "rs":
			c.ReduceScatter(64*MiB, nil, func(r Result) { res = r })
		case "ag":
			c.AllGather(64*MiB, nil, func(r Result) { res = r })
		}
		h.eng.Run()
		if res.End == 0 {
			t.Fatalf("%s never completed", op)
		}
		if res.BusGbps <= 0 || res.BusGbps > 370 {
			t.Fatalf("%s busbw = %.1f", op, res.BusGbps)
		}
	}
}

func TestCommCloseNotifiesSink(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2})
	c.AllReduce(MiB, nil, nil)
	h.eng.Run()
	c.Close()
	if len(h.rec.Closed) != 1 || h.rec.Closed[0] != c.ID {
		t.Fatalf("close notifications = %v", h.rec.Closed)
	}
}

func TestRefreshPathsRespectsPredicate(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2})
	c.AllReduce(MiB, nil, nil)
	h.eng.Run()
	conn, err := c.getConn(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[int]string)
	for _, qp := range conn.QPs {
		before[qp.QPN] = qp.Path().String()
	}
	// Predicate matches nothing: no path may change.
	c.RefreshPaths(func(*topo.Path) bool { return false })
	for _, qp := range conn.QPs {
		if qp.Path().String() != before[qp.QPN] {
			t.Fatal("RefreshPaths changed an unmatched QP")
		}
	}
}
