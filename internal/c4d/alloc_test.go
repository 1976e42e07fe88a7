package c4d

import (
	"slices"
	"sort"
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
)

// On a warm master, folding a record of an operation it has already seen
// allocates nothing: the pair, wait and per-op entries exist, so each
// record only adds to them. An idle tick allocates nothing either: the
// ticker is one event the master re-arms.
func TestWarmMasterIngestAllocs(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMaster(eng, Config{})
	m.OnCommCreate(accl.CommInfo{Comm: 1, Nodes: []int{6, 0, 4, 2}})
	if allocs := testing.AllocsPerRun(10, func() { eng.RunFor(ReportInterval) }); allocs != 0 || m.SkippedPasses() != 11 {
		t.Fatalf("idle tick: %v allocs over %d skipped passes, want 0 over 11", allocs, m.SkippedPasses())
	}
	records := 0
	ingest := func() {
		for _, n := range []int{0, 2, 4, 6} {
			m.OnCollective(accl.CollEvent{Comm: 1, Seq: 1, Node: n, Time: sim.Second})
			m.OnMessage(accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: n, DstNode: (n + 2) % 8, Bytes: 1, End: sim.Second})
			m.OnWait(accl.WaitEvent{Comm: 1, Seq: 1, Waiter: n, On: (n + 2) % 8, Dur: sim.Millisecond})
			records += 3
		}
	}
	ingest()
	if allocs := testing.AllocsPerRun(50, ingest); allocs != 0 {
		t.Fatalf("warm ingest of 12 records: %v allocs, want 0", allocs)
	}
	// AllocsPerRun runs ingest once more than asked, to warm up.
	if records != 52*12 || len(m.comms[1].pairs) != 4 || len(m.comms[1].waits) != 4 {
		t.Fatalf("%d records into %d pairs and %d waits, want %d into 4 and 4",
			records, len(m.comms[1].pairs), len(m.comms[1].waits), 52*12)
	}
	m.Stop()
}

// HangWatch.Msg prunes per-op transport evidence only when the lowest op
// it holds leaves the 9-op window, yet the maps hold exactly what pruning
// on every message leaves: a stream of mostly rising, sometimes late,
// sequence numbers checked against that rule after every message. It
// walks the maps only on the messages that move the window.
func TestIngestPrunesOpEvidenceOnlyWhenWindowMoves(t *testing.T) {
	w := NewHangWatch([]int{0, 1, 2, 3})
	want := map[int]bool{}
	r := sim.NewRand(3)
	seq, walks := 0, 0
	for step := 0; step < 2000; step++ {
		s := seq
		switch x := r.Intn(10); {
		case x < 4:
			seq++
			s = seq
		case x == 9:
			s = seq - r.Intn(12) // a late message from an older op
		}
		lowest := s
		for old := range want {
			lowest = min(lowest, old)
		}
		walked := w.Msg(accl.MsgEvent{Comm: 1, Seq: s, SrcNode: r.Intn(4), DstNode: r.Intn(4)})
		want[s] = true
		for old := range want {
			if old < s-8 {
				delete(want, old)
			}
		}
		if moved := lowest < s-8; moved != (walked > 0) {
			t.Fatalf("step %d: op %d walked %d entries, lowest op held %d", step, s, walked, lowest)
		}
		if walked > 0 {
			walks++
		}
		got := sortedKeys(w.opTx)
		if ws := sortedKeys(want); !slices.Equal(got, ws) {
			t.Fatalf("step %d: opTx holds ops %v, want %v", step, got, ws)
		}
		if rx := sortedKeys(w.opRx); !slices.Equal(rx, got) {
			t.Fatalf("step %d: opRx holds ops %v, opTx %v", step, rx, got)
		}
		if w.opMin != got[0] {
			t.Fatalf("step %d: opMin = %d, lowest op held is %d", step, w.opMin, got[0])
		}
	}
	if walks == 0 {
		t.Fatal("the window never moved")
	}
}

// The master keeps first-arrival times only for the newest ops: after
// 1,000 operations its hang watch holds at most opWindow of them.
func TestMasterFirstArrivalsStayBounded(t *testing.T) {
	m := NewMaster(sim.NewEngine(), Config{})
	nodes := []int{0, 1, 2, 3}
	m.OnCommCreate(accl.CommInfo{Comm: 1, Nodes: nodes})
	for seq := 1; seq <= 1000; seq++ {
		for _, n := range nodes {
			m.OnCollective(accl.CollEvent{Comm: 1, Seq: seq, Node: n, Phase: accl.PhaseArrive, Time: sim.Time(seq) * sim.Second})
		}
		for _, n := range nodes {
			m.OnCollective(accl.CollEvent{Comm: 1, Seq: seq, Node: n, Phase: accl.PhaseComplete, Time: sim.Time(seq)*sim.Second + 1})
		}
		if seq%50 == 0 {
			m.analyze(sim.Time(seq) * sim.Second)
		}
	}
	if n := len(m.comms[1].hang.firstArr); n > opWindow {
		t.Fatalf("first-arrival map holds %d ops after 1000, want at most %d", n, opWindow)
	}
	if evs := m.Events(); len(evs) != 0 {
		t.Fatalf("completed ops produced findings: %v", evs)
	}
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
