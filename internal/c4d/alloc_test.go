package c4d

import (
	"slices"
	"sort"
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
)

// sumDetector reads every report's records and retains none, as
// Detector.Ingest requires.
type sumDetector struct{ records, passes int }

func (d *sumDetector) RegisterComm(accl.CommInfo) {}
func (d *sumDetector) UnregisterComm(int)         {}
func (d *sumDetector) Active() bool               { return true }
func (d *sumDetector) Analyze(sim.Time)           { d.passes++ }
func (d *sumDetector) Ingest(r Report) {
	d.records += len(r.Messages) + len(r.Colls) + len(r.Waits)
}

// A warm fleet tick allocates nothing: agents keep their record buffers
// across ticks, the reporting order is kept sorted as agents appear, and
// the ticker is one event the fleet re-arms.
func TestWarmFleetTickAllocs(t *testing.T) {
	eng := sim.NewEngine()
	det := &sumDetector{}
	fleet := NewFleetDetector(eng, det, sim.Second)
	fleet.OnCommCreate(accl.CommInfo{Comm: 1, Nodes: []int{6, 0, 4, 2}})
	tick := func() {
		for i, n := range []int{0, 2, 4, 6} {
			fleet.OnCollective(accl.CollEvent{Comm: 1, Seq: i, Node: n})
			fleet.OnMessage(accl.MsgEvent{Comm: 1, Seq: i, SrcNode: n, DstNode: (n + 2) % 8, Bytes: 1})
			fleet.OnMessage(accl.MsgEvent{Comm: 1, Seq: i, SrcNode: n, DstNode: (n + 2) % 8, Bytes: 1})
			fleet.OnWait(accl.WaitEvent{Comm: 1, Seq: i, Waiter: n, On: (n + 2) % 8})
		}
		eng.RunFor(sim.Second)
	}
	tick()
	if allocs := testing.AllocsPerRun(50, tick); allocs != 0 {
		t.Fatalf("warm fleet tick: %v allocs, want 0", allocs)
	}
	// AllocsPerRun runs tick once more than asked, to warm up.
	if det.passes != 52 || det.records != 52*16 {
		t.Fatalf("%d passes over %d records, want 52 over %d", det.passes, det.records, 52*16)
	}
	fleet.Stop()
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
	m := NewMaster(Config{})
	nodes := []int{0, 1, 2, 3}
	m.RegisterComm(accl.CommInfo{Comm: 1, Nodes: nodes})
	for seq := 1; seq <= 1000; seq++ {
		var colls []accl.CollEvent
		for _, n := range nodes {
			colls = append(colls, accl.CollEvent{Comm: 1, Seq: seq, Node: n, Phase: accl.PhaseArrive, Time: sim.Time(seq) * sim.Second})
		}
		for _, n := range nodes {
			colls = append(colls, accl.CollEvent{Comm: 1, Seq: seq, Node: n, Phase: accl.PhaseComplete, Time: sim.Time(seq)*sim.Second + 1})
		}
		m.Ingest(Report{Colls: colls})
		if seq%50 == 0 {
			m.Analyze(sim.Time(seq) * sim.Second)
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
