package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"c4"
)

// The interactive job loop itself is exercised by the session and
// harness packages; these tests drive the flag paths end to end.

func TestSimTenancySmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`{"events": [
		{"at_s": 0, "name": "a", "nodes": 2, "duration_s": 10},
		{"at_s": 1, "name": "b", "nodes": 2, "duration_s": 10}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runC4(t, "sim", "-tenancy-trace", trace, "-tenancy-policy", "packed",
		"-provider", "c4p", "-tenancy-spines", "8", "-horizon", "30s"); code != 0 {
		t.Fatalf("c4 sim -tenancy-trace: exit %d, want 0\n%s", code, stderr)
	}
}

func TestSimTenancyBadInputs(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`{"events": [{"at_s": 0, "nodes": 2, "duration_s": 10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"missing trace file": {"-tenancy-trace", filepath.Join(t.TempDir(), "missing.json")},
		"bad policy":         {"-tenancy-trace", trace, "-tenancy-policy", "diagonal"},
		"bad provider":       {"-tenancy-trace", trace, "-provider", "carrier-pigeon"},
	}
	for name, args := range cases {
		if code, _, _ := runC4(t, append([]string{"sim", "-horizon", "1s"}, args...)...); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}

// TestSimPlanSmoke runs a short plan and requires its -telemetry-out file
// to equal the stream a c4.Session with the same spec writes.
func TestSimPlanSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "plan.jsonl")
	if code, _, stderr := runC4(t, "sim", "-plan", "tp8/pp2/dp2/ga2", "-job", "gpt22b",
		"-plan-iters", "2", "-telemetry-out", out); code != 0 {
		t.Fatalf("c4 sim -plan: exit %d, want 0\n%s", code, stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	sess, err := c4.NewSession(c4.SessionOptions{Spec: c4.SessionSpec{
		Seed: 1, Job: &c4.SessionJob{Model: "gpt22b", Plan: "tp8/pp2/dp2/ga2", PlanIters: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	w := c4.NewTelemetryStreamWriter(&want)
	sess.AttachSink(w)
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-telemetry-out wrote %d bytes, the session stream is %d bytes", len(got), want.Len())
	}
}

func TestSimPlanBadInputs(t *testing.T) {
	cases := map[string][]string{
		"bad strategy":    {"-plan", "qp4"},
		"bad model":       {"-plan", "tp8/dp2", "-job", "gpt9000"},
		"oversized world": {"-plan", "pp8/dp8"},
		"bad provider":    {"-plan", "tp8/dp2", "-provider", "smoke-signals"},
	}
	for name, args := range cases {
		if code, _, _ := runC4(t, append([]string{"sim", "-plan-iters", "1"}, args...)...); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}
