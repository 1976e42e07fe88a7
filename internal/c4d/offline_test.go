package c4d

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"c4/internal/accl"
	"c4/internal/sim"
)

func TestAnalyzeOfflineFindsInjectedRow(t *testing.T) {
	// Synthesize two windows of full-mesh traffic, MinPairObs transfers
	// per pair: healthy in the first, node 3's Tx degraded 4x in the
	// second.
	var msgs []accl.MsgEvent
	nodes := []int{0, 1, 2, 3, 4, 5}
	emit := func(window int, slowSrc int) {
		base := sim.Time(window) * 10 * sim.Second
		for range MinPairObs {
			for _, s := range nodes {
				for _, d := range nodes {
					if s == d {
						continue
					}
					dur := 100 * sim.Millisecond
					if s == slowSrc {
						dur *= 4
					}
					msgs = append(msgs, accl.MsgEvent{
						Comm: 1, Seq: window, SrcNode: s, DstNode: d,
						Bytes: 1 << 24, Start: base, End: base + dur,
					})
				}
			}
		}
	}
	emit(0, -1)
	emit(1, 3)
	findings := AnalyzeOffline(msgs, 10*sim.Second, 2)
	if len(findings) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", findings)
	}
	f := findings[0]
	if f.WindowStart != 10*sim.Second {
		t.Fatalf("finding in wrong window: %+v", f)
	}
	if f.Finding.Scope != ScopeNodeTx || f.Finding.Src != 3 {
		t.Fatalf("finding = %+v, want node-tx 3", f.Finding)
	}
}

// A record ending exactly on a window boundary belongs to the window it
// opens, even when it is the last record: four ring connections of six
// transfers each (MinMatrixObs in all) ending at 10 s, n3->n0 at a tenth
// of the others' bandwidth.
func TestAnalyzeOfflineRecordOnWindowEdge(t *testing.T) {
	var msgs []accl.MsgEvent
	for range MinMatrixObs / 4 {
		for src := 0; src < 4; src++ {
			bytes := 1e9
			if src == 3 {
				bytes = 1e8
			}
			msgs = append(msgs, accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: src, DstNode: (src + 1) % 4,
				Bytes: bytes, Start: 9 * sim.Second, End: 10 * sim.Second})
		}
	}
	got := AnalyzeOffline(msgs, 10*sim.Second, 2)
	want := OfflineFinding{WindowStart: 10 * sim.Second, WindowEnd: 20 * sim.Second, Comm: 1,
		Finding: MatrixFinding{Scope: ScopeConnection, Src: 3, Dst: 0, Slowdown: 10}}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("findings = %+v, want [%+v]", got, want)
	}
}

// Records a lifetime apart cost two windows, not every window between
// them, and the last window's end saturates instead of wrapping negative:
// MinMatrixObs transfers on one connection near time 0, and as many on
// its reverse near the largest time.
func TestAnalyzeOfflineFarApartRecords(t *testing.T) {
	var msgs []accl.MsgEvent
	for range MinMatrixObs {
		msgs = append(msgs,
			accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: 0, DstNode: 1, Bytes: 1000, End: sim.Millisecond},
			accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: 1, DstNode: 0, Bytes: 1000,
				Start: 9223372036854775000 - sim.Millisecond, End: 9223372036854775000})
	}
	if n := len(offlineWindows(msgs, 10*sim.Second)); n != 2 {
		t.Fatalf("%d windows, want 2", n)
	}
	done := make(chan []OfflineFinding, 1)
	go func() {
		// Kappa 0 flags every cell: one finding per analyzed window.
		done <- AnalyzeOffline(msgs, 10*sim.Second, 0)
	}()
	select {
	case got := <-done:
		for _, f := range got {
			if f.WindowEnd < f.WindowStart || f.WindowEnd-f.WindowStart > 10*sim.Second {
				t.Fatalf("window [%d, %d] ns", f.WindowStart, f.WindowEnd)
			}
		}
		if len(got) != 2 || got[1].WindowEnd != math.MaxInt64 {
			t.Fatalf("findings = %+v, want one per window, the last ending at the largest time", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AnalyzeOffline did not finish within 10 s")
	}
}

// A connection whose transfer times add up past the largest time keeps
// its cell: the window's duration sum saturates instead of wrapping
// negative. On a 4-node ring, three healthy connections carry 24
// transfers of 1 GB in 40 ms each, and n3->n0 carries 24 transfers of
// 4e17 ns each (9.6e18 ns in all), every transfer ending at 4e17 ns.
func TestAnalyzeOfflineDurationSumSaturates(t *testing.T) {
	const end = sim.Time(4e17)
	var msgs []accl.MsgEvent
	for range 24 {
		for src := 0; src < 4; src++ {
			start := end - 40*sim.Millisecond
			if src == 3 {
				start = 0
			}
			msgs = append(msgs, accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: src, DstNode: (src + 1) % 4,
				Bytes: 1e9, Start: start, End: end})
		}
	}
	got := AnalyzeOffline(msgs, 10*sim.Second, 2)
	if len(got) != 1 || got[0].Finding.Scope != ScopeConnection || got[0].Finding.Src != 3 || got[0].Finding.Dst != 0 {
		t.Fatalf("findings = %+v, want the n3->n0 connection blamed", got)
	}
}

func TestAnalyzeOfflineEmpty(t *testing.T) {
	if got := AnalyzeOffline(nil, sim.Second, 2); got != nil {
		t.Fatalf("empty input: %+v", got)
	}
	msgs := []accl.MsgEvent{{Comm: 1, SrcNode: 0, DstNode: 2, Bytes: 1 << 20, End: sim.Millisecond}}
	if got := AnalyzeOffline(msgs, 0, 2); got != nil {
		t.Fatalf("zero window: %+v", got)
	}
}

// Property: the analyzer's cost is bounded by its input. offlineWindows
// returns one window per distinct (window, communicator) that a record
// ending at or after time 0 falls in — so at most one per record, however
// far apart the records and whatever the window length — in (window,
// communicator) order, and every finding's window lies inside
// [start, start+window].
func TestOfflineWindowsAtMostOnePerRecordProperty(t *testing.T) {
	f := func(ends []int64, nearEndsMs []uint16, comms []uint8, window uint32) bool {
		var msgs []accl.MsgEvent
		add := func(i int, end sim.Time) {
			comm := 0
			if len(comms) > 0 {
				comm = int(comms[i%len(comms)] % 3)
			}
			msgs = append(msgs, accl.MsgEvent{Comm: comm, SrcNode: i % 4, DstNode: (i + 1) % 4,
				Bytes: 1 << 20, Start: end - sim.Time(i%7)*sim.Millisecond, End: end})
		}
		for i, e := range ends {
			add(i, sim.Time(e))
		}
		for i, ms := range nearEndsMs {
			add(len(ends)+i, sim.Time(ms)*sim.Millisecond)
		}
		for _, w := range []sim.Time{1, sim.Time(window) + 1, 10 * sim.Second, math.MaxInt64} {
			keys := map[[2]int64]bool{}
			for _, m := range msgs {
				if m.End >= 0 {
					keys[[2]int64{int64(m.End / w), int64(m.Comm)}] = true
				}
			}
			wins := offlineWindows(msgs, w)
			if len(wins) != len(keys) {
				t.Logf("%d windows of %d ns for records in %d (window, comm) buckets", len(wins), w, len(keys))
				return false
			}
			for i := 1; i < len(wins); i++ {
				if a, b := wins[i-1], wins[i]; a.start > b.start || a.start == b.start && a.comm >= b.comm {
					t.Logf("window %d (%d ns, comm %d) before window %d (%d ns, comm %d)", i-1, a.start, a.comm, i, b.start, b.comm)
					return false
				}
			}
			for _, of := range AnalyzeOffline(msgs, w, 0) {
				if of.WindowEnd < of.WindowStart || of.WindowEnd-of.WindowStart > w {
					t.Logf("window [%d, %d] ns for a %d ns window", of.WindowStart, of.WindowEnd, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Each scope renders in the analyzer's one wording: the blamed NIC side
// names its node, a connection its two ends.
func TestOfflineFindingString(t *testing.T) {
	at := func(f MatrixFinding) OfflineFinding {
		return OfflineFinding{WindowStart: 30 * sim.Second, WindowEnd: 40 * sim.Second, Comm: 1, Finding: f}
	}
	for _, tc := range []struct {
		of   OfflineFinding
		want string
	}{
		{at(MatrixFinding{Scope: ScopeNodeTx, Src: 3, Dst: -1, Slowdown: 4}), "[30s..40s] comm 1: node 3 Tx slow (x4.0)"},
		{at(MatrixFinding{Scope: ScopeNodeRx, Src: -1, Dst: 9, Slowdown: 2.5}), "[30s..40s] comm 1: node 9 Rx slow (x2.5)"},
		{at(MatrixFinding{Scope: ScopeConnection, Src: 1, Dst: 9, Slowdown: 7.2}), "[30s..40s] comm 1: connection n1->n9 slow (x7.2)"},
	} {
		if got := tc.of.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.of.Finding, got, tc.want)
		}
	}
}
