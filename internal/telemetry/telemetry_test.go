package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/sim"
)

func TestCollectorRingDropsOldest(t *testing.T) {
	c := NewCollector(3, 4)
	for i := 0; i < 6; i++ {
		c.Push(Record{Time: sim.Time(i), Node: 3, Kind: KindMsg})
	}
	if c.Len() != 4 || c.Pushed() != 6 || c.Dropped() != 2 {
		t.Fatalf("len=%d pushed=%d dropped=%d, want 4/6/2", c.Len(), c.Pushed(), c.Dropped())
	}
	got := c.Drain(nil)
	if len(got) != 4 {
		t.Fatalf("drained %d records", len(got))
	}
	for i, rec := range got {
		if rec.Time != sim.Time(i+2) {
			t.Fatalf("record %d has time %v, want %v (oldest two dropped)", i, rec.Time, sim.Time(i+2))
		}
	}
	if c.Len() != 0 {
		t.Fatal("drain did not empty the ring")
	}
	// Reuse after drain keeps working.
	c.Push(Record{Time: 99})
	if got := c.Drain(nil); len(got) != 1 || got[0].Time != 99 {
		t.Fatalf("post-drain push lost: %v", got)
	}
}

func TestMergeByTimeDeterministicOrder(t *testing.T) {
	mk := func(tm sim.Time, node, seq int) Record {
		return Record{Time: tm, Node: node, Kind: KindColl,
			Coll: &accl.CollEvent{Seq: seq}}
	}
	// Two nodes drained in node order, interleaved times with a tie at 5.
	batch := []Record{
		mk(1, 0, 1), mk(5, 0, 2), mk(9, 0, 3), // node 0
		mk(2, 1, 1), mk(5, 1, 2), // node 1
	}
	merged := MergeByTime(append([]Record(nil), batch...))
	var order []int
	for _, r := range merged {
		order = append(order, r.Node)
	}
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("merge order = %v, want %v", order, want)
		}
	}
	// Ties break by node; within a node, push order is preserved.
	if merged[1].Time != 2 || merged[2].Time != 5 || merged[2].Node != 0 {
		t.Fatalf("tie-break wrong: %v", merged)
	}
}

func TestEWMAWarmupAndSmoothing(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation must seed directly, got %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d", e.Count())
	}
}

func TestDecayAccumFades(t *testing.T) {
	d := DecayAccum{Tau: sim.Second}
	d.Add(0, 1.0)
	if got := d.ValueAt(0); got != 1.0 {
		t.Fatalf("value at add time = %v", got)
	}
	if got := d.ValueAt(sim.Second); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Fatalf("one tau later = %v, want e^-1", got)
	}
	// Adding later decays the old mass first.
	d.Add(sim.Second, 1.0)
	want := 1 + math.Exp(-1)
	if got := d.ValueAt(sim.Second); math.Abs(got-want) > 1e-12 {
		t.Fatalf("accumulated = %v, want %v", got, want)
	}
	// Queries never mutate: asking about the past returns current mass.
	if got := d.ValueAt(0); got != d.ValueAt(sim.Second) {
		t.Fatalf("past query mutated or diverged: %v", got)
	}
}

func TestQuantileSketchMedian(t *testing.T) {
	q := NewQuantileSketch(0.1, 1000, 256)
	if q.Quantile(0.5) != 0 {
		t.Fatal("empty sketch must report 0")
	}
	for i := 0; i < 1000; i++ {
		q.Observe(100) // tight cluster
	}
	med := q.Quantile(0.5)
	if med < 90 || med > 110 {
		t.Fatalf("median of constant-100 stream = %v", med)
	}
	// A minority of outliers must not drag the median.
	for i := 0; i < 100; i++ {
		q.Observe(1)
	}
	med = q.Quantile(0.5)
	if med < 90 || med > 110 {
		t.Fatalf("median with 9%% outliers = %v", med)
	}
	if q.Count() != 1100 {
		t.Fatalf("count = %d", q.Count())
	}
	// Extremes clamp to the range.
	q.Observe(0)   // below lo -> first bin
	q.Observe(1e9) // above hi -> last bin
	if got := q.Quantile(0); got <= 0 {
		t.Fatalf("q0 = %v", got)
	}
	if got := q.Quantile(1); got > 1000*1.1 {
		t.Fatalf("q1 = %v beyond range", got)
	}
}

func TestDelayMatrixIncrementalUpdates(t *testing.T) {
	m := NewDelayMatrix(0.5)
	// 4-node all-to-all at 100, with pair (1,2) at 25 (4x slow).
	for round := 0; round < 10; round++ {
		for s := 0; s < 4; s++ {
			for d := 0; d < 4; d++ {
				if s == d {
					continue
				}
				bw := 100.0
				if s == 1 && d == 2 {
					bw = 25
				}
				m.Observe(s, d, bw)
			}
		}
	}
	e := m.Evidence(1, 2)
	if e.BW != 25 || e.Obs != 10 {
		t.Fatalf("pair(1,2) = %v/%d", e.BW, e.Obs)
	}
	if e.Ref < 80 || e.Ref > 120 || e.RefObs != 120 {
		t.Fatalf("median = %v over %d transfers, want ≈100 over 120", e.Ref, e.RefObs)
	}
	if e.Row.Peers != 3 || e.Row.Obs != 30 || e.Row.BW >= 100 || e.Row.BW <= 25 {
		t.Fatalf("row(1) = %+v", e.Row)
	}
	if e.Col.Peers != 3 || e.Col.Obs != 30 {
		t.Fatalf("col(2) = %+v", e.Col)
	}
	if e := m.Evidence(9, 9); e.BW != 0 || e.Obs != 0 || e.Row != (c4d.Line{}) || e.Col != (c4d.Line{}) {
		t.Fatalf("unknown cell, row and column not zero: %+v", e)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	records := []Record{
		{Time: 0, Node: -1, Kind: KindCommCreate, Comm: 1, Nodes: []int{0, 2}},
		RecordOfColl(accl.CollEvent{Time: 5, Comm: 1, Seq: 1, Node: 0,
			Op: accl.OpAllReduce, Algo: "ring", Bytes: 1 << 20, Phase: accl.PhaseArrive}),
		RecordOfColl(accl.CollEvent{Time: 9, Comm: 1, Seq: 1, Node: 0,
			Op: accl.OpAllReduce, Phase: accl.PhaseComplete}),
		RecordOfMsg(accl.MsgEvent{Comm: 1, Seq: 1, SrcNode: 0, DstNode: 2,
			Rail: 0, Plane: 1, Sport: 77, QPN: 5, Bytes: 512, Start: 6, End: 8}),
		RecordOfWait(accl.WaitEvent{Time: 7, Comm: 1, Seq: 1, Waiter: 2, On: 0, Dur: 3}),
		{Time: 10, Node: -1, Kind: KindCommClose, Comm: 1},
	}
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	for _, r := range records {
		w.Observe(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != uint64(len(records)) {
		t.Fatalf("written = %d", w.Written())
	}
	got, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("round-trip count %d != %d", len(got), len(records))
	}
	for i := range records {
		a, b := records[i], got[i]
		if a.Time != b.Time || a.Kind != b.Kind || a.Node != b.Node || a.Comm != b.Comm {
			t.Fatalf("record %d header diverged: %+v vs %+v", i, a, b)
		}
		switch a.Kind {
		case KindMsg:
			if *a.Msg != *b.Msg {
				t.Fatalf("msg diverged: %+v vs %+v", *a.Msg, *b.Msg)
			}
		case KindColl:
			if *a.Coll != *b.Coll {
				t.Fatalf("coll diverged: %+v vs %+v", *a.Coll, *b.Coll)
			}
		case KindWait:
			if *a.Wait != *b.Wait {
				t.Fatalf("wait diverged: %+v vs %+v", *a.Wait, *b.Wait)
			}
		}
	}
	if !strings.Contains(records[3].String(), "msg") {
		t.Fatal("record rendering missing kind")
	}
}

func TestReadStreamRejectsGarbage(t *testing.T) {
	// Every error names the package once, in ReadStream's line prefix.
	_, err := ReadStream(strings.NewReader("{\"t_ns\":1,\"kind\":\"nope\"}\n"))
	if err == nil || strings.Count(err.Error(), "telemetry:") != 1 {
		t.Fatalf("unknown kind: err %v, want one naming the package once", err)
	}
	if _, err := ReadStream(strings.NewReader("not json\n")); err == nil || strings.Count(err.Error(), "telemetry:") != 1 {
		t.Fatalf("malformed line: err %v, want one naming the package once", err)
	}
	// A coll record's phase must be arrive or complete: a misspelled or
	// missing one is not an arrival.
	for _, line := range []string{
		`{"t_ns":1,"kind":"coll","node":0,"comm":1,"seq":1,"op":"allreduce","phase":"completed"}`,
		`{"t_ns":1,"kind":"coll","node":0,"comm":1,"seq":1,"op":"allreduce"}`,
	} {
		_, err := ReadStream(strings.NewReader("\n" + line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") || strings.Count(err.Error(), "telemetry:") != 1 {
			t.Fatalf("coll line %s: err %v, want a line-2 error naming the package once", line, err)
		}
	}
	if recs, err := ReadStream(strings.NewReader("\n\n")); err != nil || len(recs) != 0 {
		t.Fatalf("blank lines: %v, %v", recs, err)
	}
}

// A transfer starts at or after time 0 and ends no earlier than it
// starts: a msg record breaking that fails the stream, naming its line,
// by either decode path (the canonical scanner or encoding/json).
func TestReadStreamRefusesBadMsgTimes(t *testing.T) {
	const good = `{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"end_ns":10}`
	for _, bad := range []string{
		`{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"start_ns":-5,"end_ns":10}`,
		`{"t_ns":-10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"end_ns":-10}`,
		`{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"start_ns":20,"end_ns":10}`,
		`{"kind": "msg", "t_ns": 10, "node": 0, "comm": 1, "start_ns": 20, "end_ns": 10}`,
	} {
		recs, err := ReadStream(strings.NewReader(good + "\n" + good + "\n" + bad + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 3") || strings.Count(err.Error(), "telemetry:") != 1 {
			t.Errorf("line %s: %d records, err %v; want an error naming line 3 and the package once", bad, len(recs), err)
		}
	}
	if recs, err := ReadStream(strings.NewReader(good + "\n")); err != nil || len(recs) != 1 {
		t.Fatalf("transfer spanning [0, 10] ns: %v, %v", recs, err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCommCreate: "comm-create", KindCommClose: "comm-close",
		KindColl: "coll", KindMsg: "msg", KindWait: "wait", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

// failAfterWriter fails every write once n bytes have been accepted — the
// disk-full / broken-pipe model for the stream-error regression tests.
type failAfterWriter struct {
	n       int
	written int
	err     error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		w.err = errWriterBroken
		return 0, w.err
	}
	w.written += len(p)
	return len(p), nil
}

var errWriterBroken = fmt.Errorf("telemetry test: writer broken")

func TestStreamWriterSurfacesWriteErrors(t *testing.T) {
	// Regression: Observe used to swallow encoder errors, so a broken
	// writer silently dropped every subsequent record. The first failure
	// must stick and surface through both Err and Flush.
	sw := NewStreamWriter(&failAfterWriter{n: 8 << 10})
	rec := Record{Time: 5, Node: 1, Comm: 2, Kind: KindMsg,
		Msg: &accl.MsgEvent{Comm: 2, Seq: 9, SrcNode: 1, DstNode: 3, Bytes: 1 << 20}}
	var broken uint64
	for i := 0; i < 1000; i++ {
		sw.Observe(rec)
		if sw.Err() != nil {
			broken = sw.Written()
			break
		}
	}
	if sw.Err() == nil {
		t.Fatal("writer broke after 8KiB but Err() stayed nil for 1000 records")
	}
	if got := sw.Flush(); got != sw.Err() {
		t.Fatalf("Flush() = %v, want the sticky Err() %v", got, sw.Err())
	}
	// Further records are dropped, not counted as serialized.
	sw.Observe(rec)
	if sw.Written() != broken {
		t.Fatalf("Written() advanced after the error: %d -> %d", broken, sw.Written())
	}
}

func TestStreamWriterFlushSurfacesBufferedError(t *testing.T) {
	// A failure smaller than the bufio buffer only shows up when the
	// buffer drains: Flush must latch it into Err.
	sw := NewStreamWriter(&failAfterWriter{n: 0})
	sw.Observe(Record{Time: 1, Node: 0, Kind: KindCommClose, Comm: 1})
	if sw.Err() != nil {
		t.Fatal("error before any flush — buffered write should succeed")
	}
	if sw.Flush() == nil {
		t.Fatal("Flush() = nil on a writer that accepts nothing")
	}
	if sw.Err() == nil {
		t.Fatal("Flush error did not stick in Err()")
	}
}

func TestEncodeRecordMatchesStreamWriter(t *testing.T) {
	rec := Record{Time: 7, Node: 2, Comm: 3, Kind: KindWait,
		Wait: &accl.WaitEvent{Time: 7, Comm: 3, Seq: 4, Waiter: 2, On: 5, Dur: 11}}
	line, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.Observe(rec)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, buf.Bytes()) {
		t.Fatalf("EncodeRecord %q != StreamWriter line %q", line, buf.Bytes())
	}
	// And the line round-trips through the stream reader.
	recs, err := ReadStream(bytes.NewReader(line))
	if err != nil || len(recs) != 1 || recs[0].Wait.Dur != 11 {
		t.Fatalf("round trip: recs=%v err=%v", recs, err)
	}
}
