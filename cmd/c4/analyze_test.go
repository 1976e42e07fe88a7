package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"c4/internal/c4d"
	"c4/internal/sim"
)

// TestAnalyzeDemo drives the demo path end to end: the
// registered analyzer-demo scenario runs, archives its four stats files,
// and the offline analyzer localizes the injected Rx degradation from the
// archived transport records — the Fig 5 workflow without a terminal.
func TestAnalyzeDemo(t *testing.T) {
	dir := t.TempDir()
	path, err := generateDemo(dir, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// rank-stats may legitimately be empty: the demo bench passes no
	// arrival skew, so no wait records accrue.
	for _, name := range []string{"comm-stats.csv", "coll-stats.csv", "rank-stats.csv", "conn-stats.csv"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("stats file %s not archived: %v", name, err)
		}
		if name != "rank-stats.csv" && st.Size() == 0 {
			t.Fatalf("stats file %s empty", name)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	msgs, err := c4d.ReadConnStats(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 {
		t.Fatal("no transport records in archived conn stats")
	}
	findings := c4d.AnalyzeOffline(msgs, 10*sim.Second, 2, 0.6)
	if len(findings) == 0 {
		t.Fatal("offline analyzer found nothing in the demo archive")
	}
	blamed := false
	for _, of := range findings {
		if of.Finding.Dst == 9 { // the demo's injected Rx victim
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("offline analyzer never blamed the demo victim: %v", findings)
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
