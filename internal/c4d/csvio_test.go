package c4d

import (
	"bytes"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"c4/internal/accl"
	"c4/internal/sim"
)

func sampleMsgs() []accl.MsgEvent {
	return []accl.MsgEvent{
		{Comm: 1, Seq: 3, SrcNode: 0, DstNode: 2, Rail: 1, Plane: 0,
			Sport: 4242, QPN: 1001, Bytes: 1 << 20,
			Start: 100 * sim.Millisecond, End: 150 * sim.Millisecond},
		{Comm: 1, Seq: 3, SrcNode: 2, DstNode: 4, Rail: 1, Plane: 1,
			Sport: 17, QPN: 1002, Bytes: 2 << 20,
			Start: 100 * sim.Millisecond, End: 250 * sim.Millisecond},
	}
}

func TestConnStatsRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteConnStats(&b, sampleMsgs()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConnStats(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleMsgs()
	if len(got) != len(want) {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCollStatsRoundTrip(t *testing.T) {
	colls := []accl.CollEvent{
		{Comm: 2, Seq: 7, Node: 4, Op: accl.OpAllReduce, Algo: "ring",
			Bytes: 64 << 20, Phase: accl.PhaseArrive, Time: sim.Second},
		{Comm: 2, Seq: 7, Node: 4, Op: accl.OpAllReduce, Algo: "ring",
			Bytes: 64 << 20, Phase: accl.PhaseComplete, Time: 2 * sim.Second},
	}
	var b strings.Builder
	if err := WriteCollStats(&b, colls); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollStats(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range colls {
		if got[i] != colls[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], colls[i])
		}
	}
}

func TestRankStatsRoundTrip(t *testing.T) {
	waits := []accl.WaitEvent{
		{Comm: 1, Seq: 9, Waiter: 2, On: 4, Dur: 300 * sim.Millisecond, Time: 5 * sim.Second},
	}
	var b strings.Builder
	if err := WriteRankStats(&b, waits); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRankStats(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != waits[0] {
		t.Fatalf("row = %+v", got[0])
	}
}

func TestCommStatsRoundTrip(t *testing.T) {
	comms := []accl.CommInfo{
		{Comm: 1, Nodes: []int{0, 2, 4}},
		{Comm: 2, Nodes: []int{1, 3}},
	}
	var b strings.Builder
	if err := WriteCommStats(&b, comms); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCommStats(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Comm != 1 || len(got[0].Nodes) != 3 || got[1].Nodes[1] != 3 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	if _, err := ReadConnStats(strings.NewReader("comm,seq\n1,2\n")); err == nil {
		t.Fatal("short rows accepted")
	}
	bad := "comm,seq,src_node,dst_node,rail,plane,sport,qpn,bytes,start_ns,end_ns\nx,0,0,0,0,0,0,0,0,0,0\n"
	if _, err := ReadConnStats(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
	if got, err := ReadConnStats(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Fatalf("empty file: %v %v", got, err)
	}
}

// Every stats file must open with its own header, or its first record
// would be taken for the header and dropped: the four-transfer conn-stats
// file without its header line must be refused, naming line 1.
func TestReadStatsRefuseMissingHeader(t *testing.T) {
	data, err := os.ReadFile("testdata/conn-stats-no-header.csv")
	if err != nil {
		t.Fatal(err)
	}
	if msgs, err := ReadConnStats(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("headerless conn-stats: %d records, err %v; want an error naming line 1", len(msgs), err)
	}
	readers := []struct {
		header []string
		read   func(io.Reader) error
	}{
		{connStatsHeader, func(r io.Reader) error { _, err := ReadConnStats(r); return err }},
		{collStatsHeader, func(r io.Reader) error { _, err := ReadCollStats(r); return err }},
		{rankStatsHeader, func(r io.Reader) error { _, err := ReadRankStats(r); return err }},
		{commStatsHeader, func(r io.Reader) error { _, err := ReadCommStats(r); return err }},
	}
	for _, rd := range readers {
		renamed := slices.Clone(rd.header)
		renamed[len(renamed)-1] += "_x"
		zeros := strings.TrimSuffix(strings.Repeat("0,", len(rd.header)), ",")
		for _, first := range []string{strings.Join(renamed, ","), zeros} {
			in := first + "\n" + zeros + "\n"
			if err := rd.read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 1") {
				t.Errorf("%s reader on %q: err = %v, want one naming line 1", rd.header, in, err)
			}
		}
		good := strings.Join(rd.header, ",") + "\n" + zeros + "\n"
		if err := rd.read(strings.NewReader(good)); err != nil {
			t.Errorf("%s reader refused its own header: %v", rd.header, err)
		}
	}
}

func TestAnalyzeOfflineFindsInjectedRow(t *testing.T) {
	// Synthesize two windows of full-mesh traffic: healthy in the first,
	// node 3's Tx degraded 4x in the second.
	var msgs []accl.MsgEvent
	nodes := []int{0, 1, 2, 3, 4, 5}
	emit := func(window int, slowSrc int) {
		base := sim.Time(window) * 10 * sim.Second
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
	emit(0, -1)
	emit(1, 3)
	findings := AnalyzeOffline(msgs, 10*sim.Second, 2, 0.6)
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

func readConnStatsFile(t *testing.T, path string) []accl.MsgEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := ReadConnStats(f)
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

// A record ending exactly on a window boundary belongs to the window it
// opens, even when it is the last record: four ring transfers ending at
// 10 s, n3->n0 at a tenth of the others' bandwidth.
func TestAnalyzeOfflineRecordOnWindowEdge(t *testing.T) {
	msgs := readConnStatsFile(t, "testdata/conn-stats-window-edge.csv")
	got := AnalyzeOffline(msgs, 10*sim.Second, 2, 0.6)
	want := OfflineFinding{WindowStart: 10 * sim.Second, WindowEnd: 20 * sim.Second, Comm: 1,
		Finding: MatrixFinding{Scope: ScopeConnection, Src: 3, Dst: 0, Slowdown: 10}}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("findings = %+v, want [%+v]", got, want)
	}
}

// Records a lifetime apart cost two windows, not every window between
// them, and the last window's end saturates instead of wrapping negative.
func TestAnalyzeOfflineFarApartRecords(t *testing.T) {
	msgs := readConnStatsFile(t, "testdata/conn-stats-far-apart.csv")
	if n := len(offlineWindows(msgs, 10*sim.Second)); n != 2 {
		t.Fatalf("%d windows, want 2", n)
	}
	done := make(chan []OfflineFinding, 1)
	go func() {
		// Kappa 0 flags every cell: one finding per analyzed window.
		done <- AnalyzeOffline(msgs, 10*sim.Second, 0, 0.6)
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

func TestReadConnStatsRefusesBadTimes(t *testing.T) {
	const header = "comm,seq,src_node,dst_node,rail,plane,sport,qpn,bytes,start_ns,end_ns\n"
	for _, tc := range []struct{ row, want string }{
		{"1,1,0,1,0,0,0,0,8,-5,10", "line 3"},
		{"1,1,0,1,0,0,0,0,8,0,-10", "line 3"},
		{"1,1,0,1,0,0,0,0,8,20,10", "line 3"},
	} {
		in := header + "1,1,0,1,0,0,0,0,8,0,10\n" + tc.row + "\n"
		if _, err := ReadConnStats(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("row %q: err = %v, want one naming %s", tc.row, err, tc.want)
		}
	}
}

func TestAnalyzeOfflineEmpty(t *testing.T) {
	if got := AnalyzeOffline(nil, sim.Second, 2, 0.6); got != nil {
		t.Fatalf("empty input: %+v", got)
	}
	if got := AnalyzeOffline(sampleMsgs(), 0, 2, 0.6); got != nil {
		t.Fatalf("zero window: %+v", got)
	}
}

// Property: conn-stats round trip is exact for arbitrary event fields.
func TestConnStatsRoundTripProperty(t *testing.T) {
	f := func(comm, seq uint8, src, dst uint8, bytes uint32, startMs, durMs uint16) bool {
		ev := accl.MsgEvent{
			Comm: int(comm), Seq: int(seq), SrcNode: int(src), DstNode: int(dst),
			Bytes: float64(bytes),
			Start: sim.Time(startMs) * sim.Millisecond,
			End:   sim.Time(startMs)*sim.Millisecond + sim.Time(durMs)*sim.Millisecond,
		}
		var b strings.Builder
		if err := WriteConnStats(&b, []accl.MsgEvent{ev}); err != nil {
			return false
		}
		got, err := ReadConnStats(strings.NewReader(b.String()))
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadStats runs the four stats readers on arbitrary bytes. None may
// panic; whatever a reader accepts, its writer re-writes and the re-write
// reads back equal (floats compared by bits); and accepted conn-stats cost
// AnalyzeOffline at most one window per record. Plain `go test` replays
// the committed seed corpus in testdata/fuzz/FuzzReadStats.
func FuzzReadStats(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if msgs, err := ReadConnStats(bytes.NewReader(data)); err == nil {
			reread(t, "conn-stats", msgs, WriteConnStats, ReadConnStats, func(a, b accl.MsgEvent) bool {
				fa, fb := a, b
				fa.Bytes, fb.Bytes = 0, 0
				return fa == fb && math.Float64bits(a.Bytes) == math.Float64bits(b.Bytes)
			})
			for _, window := range []sim.Time{1, 10 * sim.Second} {
				if n := len(offlineWindows(msgs, window)); n > len(msgs) {
					t.Fatalf("%d windows of %v for %d records", n, window, len(msgs))
				}
				AnalyzeOffline(msgs, window, 2, 0.6)
			}
		}
		if colls, err := ReadCollStats(bytes.NewReader(data)); err == nil {
			reread(t, "coll-stats", colls, WriteCollStats, ReadCollStats, func(a, b accl.CollEvent) bool {
				fa, fb := a, b
				fa.Bytes, fb.Bytes = 0, 0
				return fa == fb && math.Float64bits(a.Bytes) == math.Float64bits(b.Bytes)
			})
		}
		if waits, err := ReadRankStats(bytes.NewReader(data)); err == nil {
			reread(t, "rank-stats", waits, WriteRankStats, ReadRankStats, func(a, b accl.WaitEvent) bool { return a == b })
		}
		if comms, err := ReadCommStats(bytes.NewReader(data)); err == nil {
			reread(t, "comm-stats", comms, WriteCommStats, ReadCommStats, func(a, b accl.CommInfo) bool {
				return a.Comm == b.Comm && slices.Equal(a.Nodes, b.Nodes)
			})
		}
	})
}

// reread writes rows with write, reads them back with read, and requires
// the same rows.
func reread[T any](t *testing.T, name string, rows []T, write func(io.Writer, []T) error,
	read func(io.Reader) ([]T, error), eq func(a, b T) bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, rows); err != nil {
		t.Fatalf("%s: re-writing %d accepted rows: %v", name, len(rows), err)
	}
	back, err := read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: reading the re-write back: %v\n%s", name, err, buf.Bytes())
	}
	if !slices.EqualFunc(rows, back, eq) {
		t.Fatalf("%s: re-write reads back\n%+v\nwant\n%+v", name, back, rows)
	}
}
