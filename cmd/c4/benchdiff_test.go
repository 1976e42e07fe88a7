package main

import (
	"os"
	"path/filepath"
	"testing"

	"c4/internal/metrics"
)

func writeBenchReport(t *testing.T, dir, name string, rep metrics.BenchReport) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchdiffRun(t *testing.T) {
	dir := t.TempDir()
	base := metrics.BenchReport{Seed: 1, Scenarios: []metrics.BenchScenario{
		{Name: "fig9", Events: 100, Metrics: map[string]float64{"busbw": 360}},
	}}
	basePath := writeBenchReport(t, dir, "base.json", base)

	same := writeBenchReport(t, dir, "same.json", base)
	if code, _, _ := runC4(t, "benchdiff", "-tol", "0.05", basePath, same); code != 0 {
		t.Fatalf("identical reports: exit %d, want 0", code)
	}

	drifted := base
	drifted.Scenarios = []metrics.BenchScenario{
		{Name: "fig9", Events: 100, Metrics: map[string]float64{"busbw": 300}},
	}
	driftPath := writeBenchReport(t, dir, "drift.json", drifted)
	if code, _, _ := runC4(t, "benchdiff", "-tol", "0.05", basePath, driftPath); code != 1 {
		t.Fatalf("drifted report: exit %d, want 1", code)
	}
	// The same drift passes under a huge tolerance.
	if code, _, _ := runC4(t, "benchdiff", "-tol", "0.5", basePath, driftPath); code != 0 {
		t.Fatalf("drift within tolerance: exit %d, want 0", code)
	}
}

func TestBenchdiffMissingFile(t *testing.T) {
	if code, _, _ := runC4(t, "benchdiff", "/nonexistent/base.json", "/nonexistent/cur.json"); code != 2 {
		t.Fatalf("missing files: exit %d, want 2", code)
	}
}
