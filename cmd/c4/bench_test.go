package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c4/internal/metrics"
	"c4/internal/scenario"
)

// runTracked runs a cheap tracked scenario through the registry runner,
// shared by the JSON and markdown smoke tests.
func runTracked(t *testing.T, name string) ([]scenario.Scenario, []scenario.Report) {
	t.Helper()
	scns, err := scenario.Select(name)
	if err != nil {
		t.Fatal(err)
	}
	return scns, (&scenario.Runner{Workers: 1}).Run(context.Background(), 1, scns)
}

func TestBenchOnly(t *testing.T) {
	if code, out, stderr := runC4(t, "bench", "-only", "tableI", "-workers", "1"); code != 0 || !strings.Contains(out, "tableI") {
		t.Fatalf("c4 bench -only tableI: exit %d\nstdout %s\nstderr %s", code, out, stderr)
	}
}

func TestBenchUnknownScenario(t *testing.T) {
	if code, _, _ := runC4(t, "bench", "-only", "no-such-scenario"); code != 2 {
		t.Errorf("c4 bench -only no-such-scenario: exit %d, want 2", code)
	}
}

func TestBenchUnknownCampaign(t *testing.T) {
	if code, _, _ := runC4(t, "bench", "-only", "campaign/no-such-campaign"); code != 2 {
		t.Errorf("c4 bench -only campaign/no-such-campaign: exit %d, want 2", code)
	}
}

func TestBenchCampaignJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep in -short mode")
	}
	dir := t.TempDir()
	if code, _, stderr := runC4(t, "bench", "-only", "campaign/straggler-sweep", "-campaign-json", dir); code != 0 {
		t.Fatalf("c4 bench -only campaign/straggler-sweep: exit %d\n%s", code, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "straggler-sweep.json"))
	if err != nil {
		t.Fatalf("campaign JSON report not written: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("campaign JSON report empty")
	}
}

func TestWriteBenchJSON(t *testing.T) {
	scns, reports := runTracked(t, "tableI,nccltest")
	var buf bytes.Buffer
	if failures := writeBenchJSON(&buf, io.Discard, scns, reports, 1); failures != 0 {
		t.Fatalf("writeBenchJSON reported %d failures", failures)
	}
	rep, err := metrics.ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 || rep.Seed != 1 {
		t.Fatalf("bench report = %+v", rep)
	}
	for _, s := range rep.Scenarios {
		if len(s.Metrics) == 0 {
			t.Fatalf("scenario %s tracked no metrics", s.Name)
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	scns, reports := runTracked(t, "tableI")
	var buf bytes.Buffer
	if failures := writeMarkdown(&buf, scns, reports, 1); failures != 0 {
		t.Fatalf("writeMarkdown reported %d failures", failures)
	}
	out := buf.String()
	for _, want := range []string{"| tableI |", "Fault model and campaign knobs", "link-flap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestShardScenarios pins the bench shard stride: sorted selection,
// i-mod-n membership, exact partition across shards, and rejection of
// malformed or empty shards.
func TestShardScenarios(t *testing.T) {
	scns, err := scenario.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		part, err := shardScenarios(scns, fmt.Sprintf("%d/3", i))
		if err != nil {
			t.Fatalf("shard %d/3: %v", i, err)
		}
		for _, s := range part {
			seen[s.Name]++
		}
	}
	if len(seen) != len(scns) {
		t.Fatalf("3 shards cover %d scenarios, registry has %d", len(seen), len(scns))
	}
	for name, n := range seen {
		if n != 1 {
			t.Fatalf("scenario %s owned by %d shards", name, n)
		}
	}
	whole, err := shardScenarios(scns, "0/1")
	if err != nil || len(whole) != len(scns) {
		t.Fatalf("0/1 shard = %d scenarios, err %v", len(whole), err)
	}
	for _, bad := range []string{"x", "1/1", "-1/2", "3/2"} {
		if _, err := shardScenarios(scns, bad); err == nil {
			t.Errorf("shardScenarios(%q) accepted", bad)
		}
	}
	if _, err := shardScenarios(scns[:1], "1/2"); err == nil {
		t.Error("empty shard accepted")
	}
}
