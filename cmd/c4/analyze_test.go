package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"c4/internal/c4d"
	"c4/internal/sim"
	"c4/internal/telemetry"
)

// TestAnalyzeDemo drives the demo path end to end: the registered
// analyzer-demo scenario runs and archives one telemetry stream, the
// offline analyzer localizes the injected Rx degradation from the
// stream's transport records — the Fig 5 workflow without a terminal —
// and the online detector, replayed over the same file, blames the same
// connection.
func TestAnalyzeDemo(t *testing.T) {
	dir := t.TempDir()
	code, out, stderr := runC4(t, "analyze", "-demo", "-dir", dir)
	if code != 0 {
		t.Fatalf("c4 analyze -demo: exit %d\n%s", code, stderr)
	}
	path := filepath.Join(dir, "analyzer-demo.jsonl")
	if !strings.Contains(out, "transport records from "+path) {
		t.Fatalf("c4 analyze -demo did not read %s:\n%s", path, out)
	}
	if !strings.Contains(out, "n1->n9 slow") { // the demo's injected Rx victim
		t.Fatalf("offline analyzer never blamed the demo victim:\n%s", out)
	}

	records, err := readFile(path, telemetry.ReadStream)
	if err != nil {
		t.Fatal(err)
	}
	det := telemetry.Replay(records, telemetry.DetectorConfig{HangTimeout: 30 * sim.Second, Kappa: 2}, 0)
	if !slices.ContainsFunc(det.Detections(), func(d c4d.Detection) bool {
		return d.Syndrome == c4d.CommSlow && slices.Equal(d.Suspects, []int{1, 9})
	}) {
		t.Fatalf("replaying the demo stream never blamed n1->n9: %v", det.Detections())
	}
}

func TestAnalyzeDemoBadDir(t *testing.T) {
	// A file where the directory should be: MkdirAll must fail cleanly.
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := generateDemo(file, 1, io.Discard); err == nil {
		t.Fatal("generateDemo into a file path succeeded")
	}
}

// TestAnalyzeSimStream is the post-mortem on a recorded session: every
// msg record that `c4 sim -telemetry-out` writes is a transport record
// `c4 analyze` loads.
func TestAnalyzeSimStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nic.jsonl")
	if code, _, stderr := runC4(t, "sim", "-job", "gpt22b", "-fault", "nic", "-horizon", "120s",
		"-telemetry-out", path); code != 0 {
		t.Fatalf("c4 sim: exit %d\n%s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	msgs := bytes.Count(data, []byte(`"kind":"msg"`))
	if msgs == 0 {
		t.Fatal("the session stream holds no msg records")
	}
	code, out, stderr := runC4(t, "analyze", path)
	if code != 0 {
		t.Fatalf("c4 analyze: exit %d\n%s", code, stderr)
	}
	if want := fmt.Sprintf("loaded %d transport records from %s\n", msgs, path); !strings.HasPrefix(out, want) {
		t.Fatalf("c4 analyze printed\n%s\nwant it to open with %q", out, want)
	}
}

func TestAnalyzeBadInputs(t *testing.T) {
	dir := t.TempDir()
	const good = `{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"end_ns":10}`
	stream := filepath.Join(dir, "good.jsonl")
	if err := os.WriteFile(stream, []byte(good+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Thresholds that mean nothing are usage errors naming their flag.
	for _, tc := range []struct{ flag, value string }{
		{"-window", "0"}, {"-window", "-10s"},
		{"-kappa", "1"}, {"-kappa", "-1"}, {"-kappa", "0.5"}, {"-kappa", "NaN"},
	} {
		code, _, stderr := runC4(t, "analyze", tc.flag, tc.value, stream)
		if code != 2 || !strings.Contains(stderr, tc.flag+" ") {
			t.Errorf("c4 analyze %s %s: exit %d, stderr %q; want 2 naming the flag", tc.flag, tc.value, code, stderr)
		}
	}
	if code, _, _ := runC4(t, "analyze"); code != 2 {
		t.Errorf("no stream: exit %d, want 2", code)
	}
	if code, _, _ := runC4(t, "analyze", filepath.Join(dir, "missing.jsonl")); code != 1 {
		t.Errorf("missing stream: exit %d, want 1", code)
	}
	// A transfer with a negative or reversed time makes the stream
	// unreadable; the error names the line.
	for i, bad := range []string{
		`{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"start_ns":-5,"end_ns":10}`,
		`{"t_ns":-10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"end_ns":-10}`,
		`{"t_ns":10,"kind":"msg","node":0,"comm":1,"seq":1,"bytes":8,"dst":1,"start_ns":20,"end_ns":10}`,
	} {
		path := filepath.Join(dir, fmt.Sprintf("bad%d.jsonl", i))
		if err := os.WriteFile(path, []byte(good+"\n"+bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := runC4(t, "analyze", path)
		if code != 1 || !strings.Contains(stderr, "line 2") {
			t.Errorf("%s: exit %d, stderr %q; want 1 naming line 2", bad, code, stderr)
		}
	}
	// The defaults analyze the good stream.
	if code, out, stderr := runC4(t, "analyze", stream); code != 0 || !strings.Contains(out, "loaded 1 transport records") {
		t.Fatalf("good stream: exit %d\n%s%s", code, out, stderr)
	}
}
