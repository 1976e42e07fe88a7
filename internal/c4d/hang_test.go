package c4d

import (
	"slices"
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
)

func arrive(node, seq int, at sim.Time) accl.CollEvent {
	return accl.CollEvent{Comm: 1, Seq: seq, Node: node, Phase: accl.PhaseArrive, Time: at}
}

func complete(node, seq int, at sim.Time) accl.CollEvent {
	return accl.CollEvent{Comm: 1, Seq: seq, Node: node, Phase: accl.PhaseComplete, Time: at}
}

func msg(seq, src, dst int, end sim.Time) accl.MsgEvent {
	return accl.MsgEvent{Comm: 1, Seq: seq, SrcNode: src, DstNode: dst, Start: end - sim.Second, End: end}
}

func TestHangWatchVerdict(t *testing.T) {
	const timeout = 30 * sim.Second
	s := sim.Second
	members := []int{6, 0, 4, 2}
	cases := []struct {
		name  string
		nodes []int
		colls []accl.CollEvent
		msgs  []accl.MsgEvent
		// ripe is the first instant the verdict holds (0: never).
		ripe sim.Time
		want Hang
	}{{
		name:  "non-comm hang names the missing members in member order",
		nodes: members,
		colls: []accl.CollEvent{arrive(0, 1, 10*s), arrive(6, 1, 11*s)},
		ripe:  40 * s,
		want:  Hang{Syndrome: NonCommHang, Op: 1, Stalled: timeout, Suspects: []int{4, 2}},
	}, {
		name:  "non-comm hang on the newest op only",
		nodes: members,
		colls: []accl.CollEvent{
			arrive(6, 1, s), arrive(0, 1, s), arrive(4, 1, s), arrive(2, 1, s),
			complete(6, 1, 2*s), arrive(2, 2, 5*s), arrive(4, 2, 6*s),
		},
		ripe: 35 * s,
		want: Hang{Syndrome: NonCommHang, Op: 2, Stalled: timeout, Suspects: []int{6, 0}},
	}, {
		name:  "comm hang localized to the member with no tx/rx in the op",
		nodes: members,
		colls: []accl.CollEvent{arrive(6, 1, s), arrive(0, 1, 2*s), arrive(4, 1, 3*s), arrive(2, 1, 4*s)},
		msgs:  []accl.MsgEvent{msg(1, 6, 0, 10*s), msg(1, 0, 2, 12*s), msg(0, 4, 6, 20*s)},
		ripe:  50 * s,
		want:  Hang{Syndrome: CommHang, Op: 1, Stalled: timeout, Suspects: []int{4}, Localized: true},
	}, {
		name:  "comm hang with no traffic names the first member",
		nodes: members,
		colls: []accl.CollEvent{arrive(6, 1, s), arrive(0, 1, 2*s), arrive(4, 1, 3*s), arrive(2, 1, 4*s)},
		ripe:  31 * s,
		want:  Hang{Syndrome: CommHang, Op: 1, Stalled: timeout, Suspects: []int{6}},
	}, {
		name:  "comm hang blaming every member names the first member",
		nodes: members,
		colls: []accl.CollEvent{arrive(6, 1, s), arrive(0, 1, 2*s), arrive(4, 1, 3*s), arrive(2, 1, 4*s)},
		msgs:  []accl.MsgEvent{msg(1, 9, 8, 5*s)},
		ripe:  35 * s,
		want:  Hang{Syndrome: CommHang, Op: 1, Stalled: timeout, Suspects: []int{6}},
	}, {
		name:  "a completion clears the verdict",
		nodes: members,
		colls: []accl.CollEvent{
			arrive(6, 1, s), arrive(0, 1, 2*s), arrive(4, 1, 3*s), arrive(2, 1, 4*s), complete(4, 1, 9*s),
		},
	}, {
		name:  "no arrival, no verdict",
		nodes: members,
		msgs:  []accl.MsgEvent{msg(1, 6, 0, 10*s)},
	}, {
		name:  "a communicator without members never hangs",
		colls: []accl.CollEvent{arrive(5, 1, s)},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewHangWatch(tc.nodes)
			for _, ev := range tc.colls {
				w.Coll(ev)
			}
			for _, ev := range tc.msgs {
				w.Msg(ev)
			}
			if got := w.Deadline(timeout); got != tc.ripe {
				t.Fatalf("Deadline = %v, want %v", got, tc.ripe)
			}
			if tc.ripe == 0 {
				if h, ok := w.Verdict(24*sim.Hour, timeout); ok {
					t.Fatalf("verdict %+v, want none", h)
				}
				return
			}
			if h, ok := w.Verdict(tc.ripe-1, timeout); ok {
				t.Fatalf("ripe 1ns early: %+v", h)
			}
			h, ok := w.Verdict(tc.ripe, timeout)
			if !ok {
				t.Fatal("not ripe at the deadline")
			}
			if h.Syndrome != tc.want.Syndrome || h.Op != tc.want.Op || h.Stalled != tc.want.Stalled ||
				h.Localized != tc.want.Localized || !slices.Equal(h.Suspects, tc.want.Suspects) {
				t.Fatalf("verdict %+v, want %+v", h, tc.want)
			}
		})
	}
}

// Deadline follows the newest op through its life: none before any
// arrival, first arrival + timeout while a member is missing, the later of
// first arrival and last transport progress + timeout once all entered,
// and none once a member finished, which also clears a ripe verdict.
func TestHangWatchDeadline(t *testing.T) {
	const timeout = 30 * sim.Second
	s := sim.Second
	w := NewHangWatch([]int{0, 1})
	step := func(what string, want sim.Time) {
		t.Helper()
		if got := w.Deadline(timeout); got != want {
			t.Fatalf("%s: Deadline = %v, want %v", what, got, want)
		}
	}
	step("before any arrival", 0)
	w.Coll(arrive(1, 1, 10*s))
	step("member 0 missing", 40*s)
	w.Msg(msg(1, 1, 0, 15*s)) // transport progress does not move a non-comm deadline
	step("member 0 still missing", 40*s)
	w.Coll(arrive(0, 1, 12*s))
	step("all entered, progress after first arrival", 45*s)
	w.Msg(msg(1, 0, 1, 20*s))
	step("more progress", 50*s)
	if _, ok := w.Verdict(50*s, timeout); !ok {
		t.Fatal("comm hang not ripe at its deadline")
	}
	w.Coll(complete(0, 1, 21*s))
	step("a member finished", 0)
	if h, ok := w.Verdict(50*s, timeout); ok {
		t.Fatalf("a completion left the verdict %+v", h)
	}
	w.Coll(arrive(0, 2, 25*s))
	step("the next op, member 1 missing", 55*s)
	w.Coll(arrive(1, 2, 26*s))
	step("the next op, progress before its first arrival", 55*s)
}

func TestStraggler(t *testing.T) {
	const minWait, kappa = 50, 3
	cases := []struct {
		name  string
		waits []float64
		at    int
		fires bool
	}{
		{"empty", nil, -1, false},
		{"all zeros", []float64{0, 0, 0}, -1, false},
		{"top below the floor", []float64{10, 49, 1}, 1, false},
		{"top exactly kappa times the runner-up", []float64{30, 90, 20}, 1, true},
		{"top just below kappa times the runner-up", []float64{30, 89.999, 20}, 1, false},
		{"a tie keeps the first index", []float64{5, 80, 80}, 1, false},
		// The runner-up at 0 passes the ratio test with no evidence: any
		// wait over the floor convicts the only member waited on. ROADMAP
		// ("C4D that is right on pipelined jobs") blames this case for the
		// misfires in two-member communicators.
		{"runner-up at 0", []float64{0, 60}, 1, true},
	}
	for _, tc := range cases {
		at, fires := Straggler(tc.waits, minWait, kappa)
		if at != tc.at || fires != tc.fires {
			t.Errorf("%s: Straggler(%v) = %d, %v; want %d, %v", tc.name, tc.waits, at, fires, tc.at, tc.fires)
		}
	}
	// With a ratio of 1 a tie fires, on the first of the tied members.
	if at, fires := Straggler([]float64{5, 80, 80}, minWait, 1); at != 1 || !fires {
		t.Errorf("tie at kappa 1: %d, %v; want 1, true", at, fires)
	}
}
