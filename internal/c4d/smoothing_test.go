package c4d

import (
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
)

// The paper's §V discusses extending C4D to Expert Parallelism, where load
// imbalance among workers is *expected* and random, "which can be
// mitigated by averaging collected data over a predefined period to smooth
// out random variations and highlight systemic issues." These tests
// exercise that smoothing: random per-iteration arrival noise must not be
// blamed, nor one node slow for a single report window, while a persistent
// straggler still is.

// runEPLikeLoad drives a BSP loop where every iteration a different random
// node is slow (EP-style routing imbalance), and slow, when set, adds its
// extra compute time to a node's arrival at an iteration starting at now.
// Extra sinks receive every record beside the master.
func runEPLikeLoad(t *testing.T, slow func(node int, now sim.Time) sim.Time, until sim.Time, extra ...accl.StatsSink) *Master {
	t.Helper()
	r := newRig(t, extra...)
	noise := sim.NewRand(99)
	const compute = 100 * sim.Millisecond
	const spike = 150 * sim.Millisecond
	var iterate func()
	iterate = func() {
		now := r.eng.Now()
		arr := make([]sim.Time, len(r.nodes))
		lucky := r.nodes[noise.Intn(len(r.nodes))]
		for i, n := range r.nodes {
			arr[i] = now + compute
			if n == lucky {
				arr[i] += spike // random EP hot expert this iteration
			}
			if slow != nil {
				arr[i] += slow(n, now)
			}
		}
		r.comm.AllReduce(64<<20, arr, func(accl.Result) { iterate() })
	}
	iterate()
	r.eng.RunUntil(until)
	return r.master
}

func TestSmoothingSuppressesRandomEPImbalance(t *testing.T) {
	master := runEPLikeLoad(t, nil, 3*sim.Minute)
	for _, ev := range master.Events() {
		if ev.Syndrome == NonCommSlow {
			t.Fatalf("random per-iteration imbalance blamed as straggler: %v", ev)
		}
	}
}

func TestSmoothingStillCatchesSystemicStraggler(t *testing.T) {
	persistent := func(n int, _ sim.Time) sim.Time {
		if n == 6 {
			return 150 * sim.Millisecond
		}
		return 0
	}
	master := runEPLikeLoad(t, persistent, 3*sim.Minute)
	found := false
	for _, ev := range master.Events() {
		if ev.Syndrome == NonCommSlow {
			if ev.Node != 6 {
				t.Fatalf("wrong straggler blamed under EP noise: %v", ev)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("systemic straggler escaped under EP noise")
	}
}

// Node 6 is slow through the single report window (60 s, 65 s]. Peers
// wait on it several times as long as on anyone else in that window, so
// the straggler rule applied to that window alone blames it; averaged over
// SmoothingWindows windows of EP noise it falls below the rule's ratio.
func TestSmoothingAbsorbsOneSlowWindow(t *testing.T) {
	const from, to = 60 * sim.Second, 65 * sim.Second
	oneWindow := func(n int, now sim.Time) sim.Time {
		if n == 6 && now >= from && now < to {
			return 200 * sim.Millisecond
		}
		return 0
	}
	rec := &accl.Recorder{}
	master := runEPLikeLoad(t, oneWindow, 3*sim.Minute, rec)
	for _, ev := range master.Events() {
		if ev.Syndrome == NonCommSlow {
			t.Fatalf("one slow window blamed as a straggler: %v", ev)
		}
	}
	nodes := []int{0, 2, 4, 6}
	waits := make([]float64, len(nodes))
	for _, w := range rec.Waits {
		if w.Time > from && w.Time <= to {
			for i, n := range nodes {
				if w.On == n {
					waits[i] += float64(w.Dur)
				}
			}
		}
	}
	if i, ok := Straggler(waits, float64(MinWait), WaitKappa); !ok || nodes[i] != 6 {
		t.Fatalf("waits on %v in the slow window: %v; a one-window rule should blame node 6", nodes, waits)
	}
}
