package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c4/internal/sim"
	"c4/internal/trace"
)

// writeTestTrace records a two-iteration toy trace and exports it.
func writeTestTrace(t *testing.T, scale sim.Time) string {
	t.Helper()
	tr := trace.New()
	tr.Bind(sim.NewEngine())
	for i := 0; i < 2; i++ {
		base := sim.Time(i) * 100
		iter := tr.StartAt(nil, "iter", "iter-0", base)
		slot := tr.StartAt(iter, "slot", "d0/s0 fwd", base)
		slot.FinishAt(base + 40)
		fl := tr.StartAt(iter, "flow", "allreduce", base+40)
		fl.FinishAt(base + 40 + scale)
		iter.FinishAt(base + 40 + scale)
	}
	path := filepath.Join(t.TempDir(), "t.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteChrome(f, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadTrace parses a trace file written by writeTestTrace.
func loadTrace(t *testing.T, path string) []*trace.Span {
	t.Helper()
	spans, err := readFile(path, trace.ParseChrome)
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestTraceRoots(t *testing.T) {
	spans := loadTrace(t, writeTestTrace(t, 10))
	rs := roots(spans)
	if len(rs) != 2 || rs[0].Kind != "iter" {
		t.Fatalf("roots = %v, want 2 iter spans", rs)
	}
}

func TestTracePathTotalsAttributesDelta(t *testing.T) {
	// Two arms differing only in flow time: the diff must land entirely
	// on the flow identity, not on the slot.
	a, _ := pathTotals(loadTrace(t, writeTestTrace(t, 10)))
	b, _ := pathTotals(loadTrace(t, writeTestTrace(t, 30)))
	if d := b["flow allreduce"] - a["flow allreduce"]; d != 2*20 {
		t.Fatalf("flow delta = %v, want 40", d)
	}
	if d := b["slot d0/s0 fwd"] - a["slot d0/s0 fwd"]; d != 0 {
		t.Fatalf("slot delta = %v, want 0", d)
	}
}

func TestTraceCheckAndSummary(t *testing.T) {
	path := writeTestTrace(t, 10)
	for _, args := range [][]string{{"-check", path}, {path}, {"-diff", path, path}} {
		if code, _, stderr := runC4(t, append([]string{"trace"}, args...)...); code != 0 {
			t.Fatalf("c4 trace %v: exit %d, want 0\n%s", args, code, stderr)
		}
	}
}

// A trace whose parent links loop is refused with a usage error naming the
// event, in every mode, instead of sending the critical-path walk round
// the loop.
func TestTraceRefusesParentLoops(t *testing.T) {
	dir := t.TempDir()
	for name, events := range map[string]string{
		"self-parent": `{"ph":"X","name":"a","cat":"k","args":{"id":1,"parent":1}}`,
		"two-span-cycle": `{"ph":"X","name":"a","cat":"k","args":{"id":1,"parent":2}},
			{"ph":"X","name":"b","cat":"k","args":{"id":2,"parent":1}}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(`{"traceEvents":[`+events+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{path}, {"-check", path}, {"-diff", path, path}} {
			code, _, stderr := runC4(t, append([]string{"trace"}, args...)...)
			if code != 2 || !strings.Contains(stderr, "event 0 (k/a): parent") {
				t.Errorf("%s: c4 trace %v: exit %d, stderr %q; want 2 naming event 0", name, args, code, stderr)
			}
		}
	}
}
