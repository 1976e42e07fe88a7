package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTinyManifest drops a fast two-trial manifest into dir.
func writeTinyManifest(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "tiny.json")
	const src = `{
	  "version": 1, "name": "cli-tiny", "seed": 1,
	  "entries": [{"family": "mixed", "trials": 2, "horizon_s": 90}]
	}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCampaignUsageAndBadArgs(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"expand"},
		{"run"},
		{"run", "-manifest", "m.json", "-shard", "4/4"},
		{"run", "-manifest", "m.json", "-shard", "banana"},
		{"merge"},
		{"check"},
		{"check", "a.json", "b.json"},
	}
	for _, args := range cases {
		if code, _, _ := runC4(t, append([]string{"campaign"}, args...)...); code != 2 {
			t.Errorf("c4 campaign %v: exit %d, want usage error 2", args, code)
		}
	}
	if code, _, _ := runC4(t, "campaign", "-h"); code != 0 {
		t.Error("-h should exit 0")
	}
	if code, _, stderr := runC4(t, "campaign", "expand", "-manifest", "/nonexistent.json"); code != 1 || stderr == "" {
		t.Errorf("missing manifest: exit %d, stderr %q", code, stderr)
	}
}

// TestCampaignRunTrialPanic checks a manifest with a trial that cannot
// run (it would panic) fails the run with exit 1 and a diagnostic naming
// the trial, not a crash, and writes no partial.
func TestCampaignRunTrialPanic(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "two-spines.json")
	// Two spines leave trial outage-two-spines an outage on spine 3, which
	// expansion refuses before any trial runs.
	const src = `{"version": 1, "name": "two-spines",
	  "entries": [{"family": "outage-sweep", "horizon_s": 30, "knobs": {"spines": [2]}}]}`
	if err := os.WriteFile(manifest, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "partial.json")
	code, _, stderr := runC4(t, "campaign", "run", "-manifest", manifest, "-out", out)
	if code != 1 || !strings.Contains(stderr, "outage-two-spines") {
		t.Fatalf("exit %d, want 1 with the panicking trial named; stderr:\n%s", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("failed run left a partial behind (stat: %v)", err)
	}
}

func TestCampaignExpand(t *testing.T) {
	dir := t.TempDir()
	manifest := writeTinyManifest(t, dir)
	code, out, stderr := runC4(t, "campaign", "expand", "-manifest", manifest)
	if code != 0 {
		t.Fatalf("expand: exit %d, stderr %s", code, stderr)
	}
	for _, want := range []string{"cli-tiny", "sha256:", "2 trials", "mix-00", "mix-01"} {
		if !strings.Contains(out, want) {
			t.Errorf("expand output missing %q:\n%s", want, out)
		}
	}
}

// TestCampaignEndToEnd is the CLI-level mirror of the package determinism test:
// run serially and sharded through the real subcommands, merge both, and
// require byte-identical artifacts; then exercise the failure paths a
// smoke loop depends on (gap refusal, resume, check).
func TestCampaignEndToEnd(t *testing.T) {
	dir := t.TempDir()
	manifest := writeTinyManifest(t, dir)
	serial := filepath.Join(dir, "serial.json")
	p0 := filepath.Join(dir, "p0.json")
	p1 := filepath.Join(dir, "p1.json")

	if code, _, stderr := runC4(t, "campaign", "run", "-manifest", manifest, "-out", serial); code != 0 {
		t.Fatalf("serial run: exit %d\n%s", code, stderr)
	}
	ckpt := filepath.Join(dir, "p0.ckpt")
	if code, _, stderr := runC4(t, "campaign", "run", "-manifest", manifest, "-shard", "0/2", "-out", p0, "-checkpoint", ckpt); code != 0 {
		t.Fatalf("shard 0/2: exit %d\n%s", code, stderr)
	}
	if code, _, stderr := runC4(t, "campaign", "run", "-manifest", manifest, "-shard", "1/2", "-out", p1); code != 0 {
		t.Fatalf("shard 1/2: exit %d\n%s", code, stderr)
	}

	mergedSerial := filepath.Join(dir, "merged-serial.json")
	mergedSharded := filepath.Join(dir, "merged-sharded.json")
	if code, _, stderr := runC4(t, "campaign", "merge", "-manifest", manifest, "-check", "-out", mergedSerial, serial); code != 0 {
		t.Fatalf("serial merge: exit %d\n%s", code, stderr)
	}
	if code, out, stderr := runC4(t, "campaign", "merge", "-manifest", manifest, "-check", "-out", mergedSharded, p1, p0); code != 0 {
		t.Fatalf("sharded merge: exit %d\n%s", code, stderr)
	} else if !strings.Contains(out, "aggregate:") {
		t.Fatalf("merge summary missing aggregate line:\n%s", out)
	}
	a, err := os.ReadFile(mergedSerial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(mergedSharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("serial and sharded merges differ at the CLI level")
	}

	// A missing shard must fail the merge, not shrink the report.
	if code, _, stderr := runC4(t, "campaign", "merge", "-out", filepath.Join(dir, "gap.json"), p0); code != 1 || !strings.Contains(stderr, "missing") {
		t.Fatalf("gap merge: exit %d, stderr %s", code, stderr)
	}

	// Resume: re-running shard 0 against its complete checkpoint executes
	// nothing and reproduces the artifact bytes.
	p0resumed := filepath.Join(dir, "p0-resumed.json")
	if code, _, stderr := runC4(t, "campaign", "run", "-manifest", manifest, "-shard", "0/2", "-out", p0resumed, "-checkpoint", ckpt); code != 0 {
		t.Fatalf("resume run: exit %d\n%s", code, stderr)
	} else if !strings.Contains(stderr, "0 to run") {
		t.Fatalf("resume did not use the checkpoint:\n%s", stderr)
	}
	ra, _ := os.ReadFile(p0)
	rb, _ := os.ReadFile(p0resumed)
	if !bytes.Equal(ra, rb) {
		t.Fatal("resumed shard artifact differs from the original")
	}

	if code, out, stderr := runC4(t, "campaign", "check", "-manifest", manifest, mergedSharded); code != 0 || !strings.Contains(out, "OK (2 trials)") {
		t.Fatalf("check: exit %d\nstdout %s\nstderr %s", code, out, stderr)
	}

	// Checking against a different manifest must fail.
	otherSrc, _ := os.ReadFile(manifest)
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, bytes.Replace(otherSrc, []byte(`"seed": 1`), []byte(`"seed": 2`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runC4(t, "campaign", "check", "-manifest", other, mergedSharded); code != 1 {
		t.Fatalf("cross-manifest check: exit %d, want 1", code)
	}
}
