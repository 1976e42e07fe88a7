package c4

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// jobSpec is a short interactive-job session used across the tests.
func jobSessionSpec(seed int64) SessionSpec {
	return SessionSpec{
		Seed: seed,
		Job:  &SessionJob{Model: "gpt22b", Provider: "c4p", Fault: "straggler", HorizonS: 120},
	}
}

func runSessionOnce(t *testing.T, spec SessionSpec) (map[string]float64, string, *bytes.Buffer) {
	t.Helper()
	var stream bytes.Buffer
	sess, err := NewSession(SessionOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	w := NewTelemetryStreamWriter(&stream)
	sess.AttachSink(w)
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sess.Metrics(), sess.Summary(), &stream
}

func TestSessionJobDeterministic(t *testing.T) {
	m1, s1, b1 := runSessionOnce(t, jobSessionSpec(7))
	m2, s2, b2 := runSessionOnce(t, jobSessionSpec(7))
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("telemetry streams of identical specs diverged")
	}
	if b1.Len() == 0 {
		t.Fatal("job session produced no telemetry")
	}
	if s1 != s2 {
		t.Fatalf("summaries diverged: %q vs %q", s1, s2)
	}
	if len(m1) == 0 || m1["iterations"] <= 0 {
		t.Fatalf("metrics = %v, want iterations > 0", m1)
	}
	for k, v := range m1 {
		if m2[k] != v {
			t.Fatalf("metric %s diverged: %v vs %v", k, v, m2[k])
		}
	}
	// A different seed must actually change the run.
	_, _, b3 := runSessionOnce(t, jobSessionSpec(8))
	if bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSessionPlanMode runs a short plan with the online detector
// attached, which plan mode must honor like job mode does.
func TestSessionPlanMode(t *testing.T) {
	var log bytes.Buffer
	sess, err := NewSession(SessionOptions{
		Spec: SessionSpec{Seed: 1, Job: &SessionJob{
			Model: "gpt22b", Plan: "tp8/pp2/dp2/ga2", PlanIters: 2, Online: true,
		}},
		Log: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics()
	if m["iterations"] != 2 || m["avg_iter_s"] <= 0 || m["exposed_share"] < 0 || m["telemetry_records"] <= 0 {
		t.Fatalf("plan metrics = %v", m)
	}
	if !strings.Contains(log.String(), "avg iteration") {
		t.Fatalf("plan log missing breakdown:\n%s", log.String())
	}
}

func TestSessionTenancyMode(t *testing.T) {
	trace := []byte(`{"events": [
		{"at_s": 0, "name": "a", "nodes": 2, "duration_s": 10},
		{"at_s": 1, "name": "b", "nodes": 2, "duration_s": 10}
	]}`)
	sess, err := NewSession(SessionOptions{
		Spec: SessionSpec{Seed: 1, Tenancy: &SessionTenancy{Trace: trace, HorizonS: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics()
	if m["admitted"] != 2 || m["completed"] != 2 {
		t.Fatalf("tenancy metrics = %v", m)
	}
}

func TestSessionScenarioMode(t *testing.T) {
	sess, err := NewSession(SessionOptions{
		Spec: SessionSpec{Seed: 1, Scenario: "nccltest"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics()
	if m["sim_events"] <= 0 {
		t.Fatalf("scenario metrics = %v", m)
	}
	if _, shape := m["shape_failed"]; shape {
		t.Fatalf("nccltest shape failed: %s", sess.Summary())
	}
}

func TestSessionSpecValidation(t *testing.T) {
	bad := []SessionSpec{
		{},                                  // no mode
		{Scenario: "x", Job: &SessionJob{}}, // two modes
		{Scenario: "no-such-scenario"},
		{Job: &SessionJob{Model: "gpt9000"}},
		{Job: &SessionJob{Provider: "carrier-pigeon"}},
		{Job: &SessionJob{Placement: "diagonal"}},
		{Job: &SessionJob{Fault: "gremlin"}},
		{Job: &SessionJob{Plan: "qp4"}},
		{Job: &SessionJob{Plan: "pp8/dp8"}}, // 64 nodes > 16
		{Tenancy: &SessionTenancy{Trace: []byte("{")}},
		{Tenancy: &SessionTenancy{Trace: []byte(`{"events":[]}`), Policy: "diagonal"}},
	}
	for _, spec := range bad {
		if _, err := NewSession(SessionOptions{Spec: spec}); err == nil {
			t.Errorf("NewSession(%+v) accepted an invalid spec", spec)
		}
	}
}

func TestSessionRunsAtMostOnce(t *testing.T) {
	sess, err := NewSession(SessionOptions{Spec: SessionSpec{Seed: 1, Scenario: "nccltest"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
}

func TestSessionCancellation(t *testing.T) {
	// Pre-cancelled context: the run must not start.
	sess, err := NewSession(SessionOptions{Spec: jobSessionSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sess.Run(ctx); err == nil {
		t.Fatal("Run with cancelled context succeeded")
	}
	sess.Close()

	// Mid-run cancellation: a long-horizon job must return promptly with
	// the context's error once cancelled.
	spec := jobSessionSpec(1)
	spec.Job.HorizonS = 1e9 // far beyond any test budget
	sess2, err := NewSession(SessionOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sess2.Run(ctx2) }()
	time.Sleep(50 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned nil")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}
