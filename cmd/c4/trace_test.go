package main

import (
	"os"
	"path/filepath"
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
