package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c4/internal/accl"
	"c4/internal/sim"
	"c4/internal/telemetry"
)

// writeStream captures a tiny hand-built stream: one communicator, a
// healthy warmup, then one pair collapsing to 1/8 bandwidth — enough for
// the replayed detector to fire a comm-slow detection.
func writeStream(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := telemetry.NewStreamWriter(f)
	w.Observe(telemetry.Record{Time: 0, Node: -1, Kind: telemetry.KindCommCreate,
		Comm: 1, Nodes: []int{0, 1, 2, 3}})
	at := sim.Second
	emit := func(src, dst int, dur sim.Time) {
		w.Observe(telemetry.RecordOfMsg(accl.MsgEvent{
			Comm: 1, Seq: 1, SrcNode: src, DstNode: dst,
			Bytes: 1e9 / 8, Start: at, End: at + dur,
		}))
		at += dur
	}
	// Healthy: every ring edge moves 1 Gbit in 10 ms = 100 Gbps.
	for round := 0; round < 10; round++ {
		for n := 0; n < 4; n++ {
			emit(n, (n+1)%4, 10*sim.Millisecond)
		}
	}
	// Pair 1->2 degrades 8x.
	for round := 0; round < 10; round++ {
		emit(1, 2, 80*sim.Millisecond)
		emit(0, 1, 10*sim.Millisecond)
		emit(2, 3, 10*sim.Millisecond)
		emit(3, 0, 10*sim.Millisecond)
	}
	w.Observe(telemetry.Record{Time: at, Node: -1, Kind: telemetry.KindCommClose, Comm: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayDetects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeStream(t, path)
	code, got, stderr := runC4(t, "replay", "-stream", path, "-summary")
	if code != 0 {
		t.Fatalf("c4 replay: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(got, "DETECT") || !strings.Contains(got, "comm-slow") {
		t.Fatalf("no comm-slow detection in output:\n%s", got)
	}
	if !strings.Contains(got, "stream summary") || !strings.Contains(got, "msg bandwidth") {
		t.Fatalf("summary missing:\n%s", got)
	}
}

func TestReplayBadInputs(t *testing.T) {
	if code, _, _ := runC4(t, "replay"); code != 2 {
		t.Fatalf("missing -stream: code %d, want 2", code)
	}
	if code, _, _ := runC4(t, "replay", "-stream", "/no/such/file.jsonl"); code != 2 {
		t.Fatalf("missing file: code %d, want 2", code)
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runC4(t, "replay", "-stream", empty); code != 1 {
		t.Fatalf("empty stream: code %d, want 1", code)
	}
	garbage := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runC4(t, "replay", "-stream", garbage); code != 2 {
		t.Fatalf("garbage stream: code %d, want 2", code)
	}
	// A transfer that ends before it starts makes the stream unreadable.
	reversed := filepath.Join(t.TempDir(), "reversed.jsonl")
	line := `{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"start_ns":20,"end_ns":10}`
	if err := os.WriteFile(reversed, []byte("\n"+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runC4(t, "replay", "-stream", reversed); code != 2 || !strings.Contains(stderr, "line 2") {
		t.Fatalf("reversed transfer: code %d, stderr %q; want 2 naming line 2", code, stderr)
	}
	// Thresholds that mean nothing are usage errors naming their flag.
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeStream(t, path)
	for _, tc := range []struct{ flag, value string }{
		{"-hang-timeout", "0"}, {"-hang-timeout", "-30s"}, {"-tail", "-5s"},
		{"-kappa", "1"}, {"-kappa", "0.5"}, {"-kappa", "-1"}, {"-kappa", "NaN"},
	} {
		code, _, stderr := runC4(t, "replay", "-stream", path, tc.flag, tc.value)
		if code != 2 || !strings.Contains(stderr, tc.flag+" ") {
			t.Errorf("c4 replay %s %s: code %d, stderr %q; want 2 naming the flag", tc.flag, tc.value, code, stderr)
		}
	}
}

func TestReplayQuietStream(t *testing.T) {
	// A healthy stream replays without detections.
	path := filepath.Join(t.TempDir(), "quiet.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := telemetry.NewStreamWriter(f)
	w.Observe(telemetry.Record{Time: 0, Node: -1, Kind: telemetry.KindCommCreate,
		Comm: 1, Nodes: []int{0, 1}})
	for i := 0; i < 50; i++ {
		w.Observe(telemetry.RecordOfMsg(accl.MsgEvent{
			Comm: 1, Seq: 1, SrcNode: i % 2, DstNode: (i + 1) % 2,
			Bytes: 1e9 / 8, Start: sim.Time(i) * sim.Second, End: sim.Time(i)*sim.Second + 10*sim.Millisecond,
		}))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, out, stderr := runC4(t, "replay", "-stream", path)
	if code != 0 {
		t.Fatalf("c4 replay: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(out, "no detections") {
		t.Fatalf("quiet stream output:\n%s", out)
	}
}
