package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"c4/internal/sim"
)

func testTracer() *Tracer {
	tr := New()
	tr.Bind(sim.NewEngine())
	return tr
}

func TestNilTracerIsSafeAndAllocationFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	allocs := testing.AllocsPerRun(200, func() {
		s := tr.Start(nil, "kind", "name")
		s.Annotate("k", "v")
		tr.Event(s, "kind", "evt")
		restore := tr.Scope(s)
		if tr.Current() != nil {
			t.Fatal("nil tracer has a current span")
		}
		restore()
		s.FinishAt(10)
		s.Finish()
		tr.SetMark("fault", s)
		if tr.Mark("fault") != nil {
			t.Fatal("nil tracer stored a mark")
		}
		if tr.Spans() != nil {
			t.Fatal("nil tracer has spans")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op; want 0", allocs)
	}
}

func TestUnboundTracerRecordsNothing(t *testing.T) {
	tr := New()
	if tr.Enabled() {
		t.Fatal("unbound tracer reports Enabled")
	}
	if s := tr.Start(nil, "k", "n"); s != nil {
		t.Fatal("unbound tracer recorded a span")
	}
}

func TestSpanRecordingAndScope(t *testing.T) {
	tr := testTracer()
	root := tr.StartAt(nil, "iter", "iter-0", 0)
	restore := tr.Scope(root)
	child := tr.Start(nil, "slot", "d0/s0") // parent from scope
	restore()
	other := tr.Start(nil, "slot", "d0/s1") // no scope → root span

	if root.ID != 1 || child.ID != 2 || other.ID != 3 {
		t.Fatalf("IDs = %d,%d,%d; want 1,2,3", root.ID, child.ID, other.ID)
	}
	if child.Parent != root.ID {
		t.Fatalf("child.Parent = %d; want %d", child.Parent, root.ID)
	}
	if other.Parent != 0 {
		t.Fatalf("unscoped span parent = %d; want 0", other.Parent)
	}
	if !child.Open() {
		t.Fatal("child already closed")
	}
	child.FinishAt(50)
	child.FinishAt(99) // first close wins
	if child.End != 50 {
		t.Fatalf("child.End = %d; want 50 (first close wins)", child.End)
	}
	root.Annotate("mb", "4")
	if got := root.Attr("mb"); got != "4" {
		t.Fatalf("Attr(mb) = %q; want 4", got)
	}
	if got := root.Attr("absent"); got != "" {
		t.Fatalf("Attr(absent) = %q; want empty", got)
	}
}

func TestNestedScopeSkipsNilFrames(t *testing.T) {
	tr := testTracer()
	outer := tr.StartAt(nil, "op", "allreduce", 0)
	r1 := tr.Scope(outer)
	r2 := tr.Scope(nil) // a disabled layer pushed nothing useful
	if cur := tr.Current(); cur != outer {
		t.Fatalf("Current() = %v; want outer", cur)
	}
	r2()
	r1()
	if tr.Current() != nil {
		t.Fatal("scope stack not empty after restores")
	}
}

func TestMarks(t *testing.T) {
	tr := testTracer()
	f := tr.StartAt(nil, "fault", "nic-degrade", 10)
	tr.SetMark("fault", f)
	if tr.Mark("fault") != f {
		t.Fatal("mark not retrievable")
	}
	tr.SetMark("fault", nil)
	if tr.Mark("fault") != nil {
		t.Fatal("mark not cleared")
	}
}

// buildTree constructs the reference tree used by the profile and
// critical-path tests:
//
//	iter-0 [0,100]
//	  ├ slot A [0,40]   └ flow f1 [5,35]
//	  ├ slot B [10,60]
//	  └ dpsync D [50,95]
func buildTree(t *testing.T) (*Tracer, *Span) {
	t.Helper()
	tr := testTracer()
	root := tr.StartAt(nil, "iter", "iter-0", 0)
	a := tr.StartAt(root, "slot", "A", 0)
	f1 := tr.StartAt(a, "flow", "f1", 5)
	f1.FinishAt(35)
	a.FinishAt(40)
	b := tr.StartAt(root, "slot", "B", 10)
	b.FinishAt(60)
	d := tr.StartAt(root, "dpsync", "D", 50)
	d.FinishAt(95)
	root.FinishAt(100)
	return tr, root
}

func TestProfileSelfAndTotal(t *testing.T) {
	tr, _ := buildTree(t)
	rows := Profile(tr.Spans())
	want := map[string]ProfileRow{
		"iter":   {Kind: "iter", Count: 1, Total: 100, Self: 5},
		"slot":   {Kind: "slot", Count: 2, Total: 90, Self: 60},
		"dpsync": {Kind: "dpsync", Count: 1, Total: 45, Self: 45},
		"flow":   {Kind: "flow", Count: 1, Total: 30, Self: 30},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows; want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if w := want[r.Kind]; r != w {
			t.Errorf("row %s = %+v; want %+v", r.Kind, r, w)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Self < rows[i].Self {
			t.Fatalf("rows not sorted by Self desc: %+v", rows)
		}
	}
}

func TestCriticalPathTilesRoot(t *testing.T) {
	tr, root := buildTree(t)
	segs := CriticalPath(tr.Spans(), root)
	type want struct {
		name     string
		from, to sim.Time
	}
	wants := []want{
		{"A", 0, 5}, {"f1", 5, 10}, {"B", 10, 50}, {"D", 50, 95}, {"iter-0", 95, 100},
	}
	if len(segs) != len(wants) {
		t.Fatalf("got %d segments %+v; want %d", len(segs), segs, len(wants))
	}
	var covered sim.Time
	for i, g := range segs {
		w := wants[i]
		if g.Span.Name != w.name || g.From != w.from || g.To != w.to {
			t.Errorf("seg %d = %s [%d,%d); want %s [%d,%d)", i, g.Span.Name, g.From, g.To, w.name, w.from, w.to)
		}
		covered += g.To - g.From
		if i > 0 && segs[i-1].To != g.From {
			t.Errorf("segments not contiguous at %d: %d != %d", i, segs[i-1].To, g.From)
		}
	}
	if covered != 100 {
		t.Fatalf("path covers %d; want the full root duration 100", covered)
	}
}

func TestPathProfileSharesSumToOne(t *testing.T) {
	tr, root := buildTree(t)
	rows := PathProfile(CriticalPath(tr.Spans(), root))
	var share float64
	var self sim.Time
	for _, r := range rows {
		share += r.Share
		self += r.Self
	}
	if self != 100 {
		t.Fatalf("summed Self = %d; want 100", self)
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("summed Share = %f; want 1", share)
	}
	if rows[0].Kind != "dpsync" || rows[0].Self != 45 {
		t.Fatalf("top row = %+v; want dpsync with Self=45", rows[0])
	}
}

func TestChromeRoundTripAndDeterminism(t *testing.T) {
	tr, _ := buildTree(t)
	open := tr.Start(nil, "fault", "window")
	open.Annotate("node", "n3")
	_ = open // left open on purpose

	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two exports of the same spans differ")
	}

	got, err := ParseChrome(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Spans()) {
		t.Fatalf("parsed %d spans; want %d", len(got), len(tr.Spans()))
	}
	for i, s := range tr.Spans() {
		g := got[i]
		if g.ID != s.ID || g.Parent != s.Parent || g.Kind != s.Kind ||
			g.Name != s.Name || g.Start != s.Start || g.End != s.End {
			t.Errorf("span %d round-trip mismatch:\n got %+v\nwant %+v", i, g, s)
		}
		if len(s.Attrs) > 0 && !reflect.DeepEqual(g.Attrs, s.Attrs) {
			t.Errorf("span %d attrs = %+v; want %+v", i, g.Attrs, s.Attrs)
		}
	}
}

func TestParseChromeRejectsForeignJSON(t *testing.T) {
	if _, err := ParseChrome(bytes.NewReader([]byte(`{"traceEvents":[{"ph":"X","name":"x","cat":"y","args":{}}]}`))); err == nil {
		t.Fatal("want error for trace events without c4 id args")
	}
	if _, err := ParseChrome(bytes.NewReader([]byte(`not json`))); err == nil {
		t.Fatal("want error for non-JSON input")
	}
	// Parent links must form a forest: unique IDs, each parent 0 or a
	// span before it. A loop would send CriticalPath round it forever.
	for _, c := range []struct{ name, events, want string }{
		{"self-parent", `{"ph":"X","name":"a","cat":"k","args":{"id":1,"parent":1}}`, "event 0 (k/a): parent 1"},
		{"two-span-cycle", `{"ph":"X","name":"a","cat":"k","args":{"id":1,"parent":2}},
			{"ph":"X","name":"b","cat":"k","args":{"id":2,"parent":1}}`, "event 0 (k/a): parent 2"},
		{"duplicate-id", `{"ph":"X","name":"a","cat":"k","args":{"id":1}},
			{"ph":"X","name":"b","cat":"k","args":{"id":1}}`, "event 1 (k/b): id 1 repeats event 0's"},
		{"forward-parent", `{"ph":"X","name":"a","cat":"k","args":{"id":2,"parent":3}},
			{"ph":"X","name":"b","cat":"k","args":{"id":3}}`, "event 0 (k/a): parent 3"},
		{"unknown-parent", `{"ph":"X","name":"a","cat":"k","args":{"id":2,"parent":1}}`, "event 0 (k/a): parent 1"},
	} {
		_, err := ParseChrome(strings.NewReader(`{"traceEvents":[` + c.events + `]}`))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one naming %q", c.name, err, c.want)
		}
	}
	// A parent written after its child in the file is still a span before
	// it in ID order.
	spans, err := ParseChrome(strings.NewReader(`{"traceEvents":[
		{"ph":"X","name":"b","cat":"k","args":{"id":3,"parent":2}},
		{"ph":"X","name":"a","cat":"k","args":{"id":2}}]}`))
	if err != nil || len(spans) != 2 || spans[0].ID != 2 || spans[1].Parent != 2 {
		t.Fatalf("out-of-order file: %v, %v", spans, err)
	}
}

func TestHorizon(t *testing.T) {
	tr := testTracer()
	if Horizon(tr.Spans()) != 0 {
		t.Fatal("empty trace horizon != 0")
	}
	a := tr.StartAt(nil, "k", "a", 10)
	a.FinishAt(30)
	tr.StartAt(nil, "k", "b", 40) // open
	if h := Horizon(tr.Spans()); h != 40 {
		t.Fatalf("Horizon = %d; want 40", h)
	}
}
