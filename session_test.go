package c4

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"c4/internal/telemetry"
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

// runLogged runs a spec to completion and returns its metrics and log.
func runLogged(t *testing.T, spec SessionSpec) (map[string]float64, string) {
	t.Helper()
	var log bytes.Buffer
	sess, err := NewSession(SessionOptions{Spec: spec, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sess.Metrics(), log.String()
}

// TestSessionPlanRecoversFromCrash runs a plan under the C4 loop: C4D
// names the crashed stage-1 worker with a hang verdict, steering swaps in
// the first spare, and the restarted plan finishes its whole budget.
func TestSessionPlanRecoversFromCrash(t *testing.T) {
	victim := 9
	m, log := runLogged(t, SessionSpec{Seed: 1, Job: &SessionJob{
		Plan: "tp8/pp2/dp4/ga4", PlanIters: 100, Fault: "crash", Victim: &victim,
	}})
	for _, want := range []string{
		"FAULT: crashing worker process on node 9",
		"non-comm-hang node n9",
		"steering: isolating node 9, stopping job",
		"steering: replacing node 9 with spare 16, restarting job",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
	if m["iterations"] != 100 || m["c4d_events"] <= 0 {
		t.Fatalf("metrics = %v, want 100 iterations and C4D events", m)
	}
}

// TestSessionPlanHonorsJobOptions: -plan only picks the strategy and the
// iteration budget; every other job option applies to plans too.
func TestSessionPlanHonorsJobOptions(t *testing.T) {
	victim := 9
	crash := func() *SessionJob {
		return &SessionJob{Plan: "tp8/pp2/dp4/ga4", PlanIters: 100, Fault: "crash", Victim: &victim}
	}

	t.Run("no_c4d", func(t *testing.T) {
		js := crash()
		js.NoC4D = true
		m, log := runLogged(t, SessionSpec{Seed: 1, Job: js})
		if strings.Contains(log, "C4D:") || strings.Contains(log, "steering:") {
			t.Fatalf("no_c4d run still detected or steered:\n%s", log)
		}
		if _, ok := m["c4d_events"]; ok || m["iterations"] >= 100 || m["iterations"] <= 0 {
			t.Fatalf("metrics = %v, want a hung plan with no C4D", m)
		}
	})

	t.Run("horizon", func(t *testing.T) {
		m, _ := runLogged(t, SessionSpec{Seed: 1, Job: &SessionJob{Plan: "tp8/pp2/dp4/ga4", PlanIters: 100, HorizonS: 10}})
		if n := m["iterations"]; n <= 0 || n >= 5 {
			t.Fatalf("iterations = %v in a 10 s horizon of ~3 s iterations", n)
		}
	})

	t.Run("online", func(t *testing.T) {
		js := crash()
		js.Online = true
		_, log := runLogged(t, SessionSpec{Seed: 1, Job: js})
		if !strings.Contains(log, "ONLINE:") {
			t.Fatalf("online detector logged nothing:\n%s", log)
		}
	})

	t.Run("placement", func(t *testing.T) {
		// Packed, the plan's 8 nodes are n0..n7: the default victim 6 is
		// one of them, while spread ([0 8 1 9 2 10 3 11]) has no node 6.
		spec := func(placement string) SessionSpec {
			return SessionSpec{Seed: 1, Job: &SessionJob{
				Plan: "tp8/pp2/dp4/ga4", PlanIters: 2, Placement: placement, Fault: "crash", FaultAtS: 60,
			}}
		}
		if _, err := NewSession(SessionOptions{Spec: spec("spread")}); err == nil {
			t.Fatal("spread placement accepted victim 6, which is not a node of the plan")
		}
		sess, err := NewSession(SessionOptions{Spec: spec("topo")})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		used := map[int]bool{}
		sess.AttachSink(telemetry.SinkFunc(func(r TelemetryRecord) {
			if r.Kind == telemetry.KindCommCreate {
				for _, n := range r.Nodes {
					used[n] = true
				}
			}
		}))
		if err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(used) != 8 || !used[0] || !used[7] {
			t.Fatalf("topo placement ran on nodes %v, want n0..n7", used)
		}
		if m := sess.Metrics(); m["iterations"] != 2 {
			t.Fatalf("metrics = %v, want 2 iterations", m)
		}
	})
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

	// Bodies that NewSession once accepted and whose Run then panicked,
	// ran nothing, or would allocate without bound.
	bodies := []string{
		`{"job": {"fault": "nic", "victim": 99}}`,
		`{"job": {"fault": "nic", "victim": -1}}`,
		`{"job": {"fault": "crash", "fault_at_s": 1e30}}`,
		`{"job": {"horizon_s": 1e30}}`,
		`{"job": {"horizon_s": -5}}`,
		`{"job": {"plan": "pp4611686018427387904/dp4"}}`,
		`{"job": {"plan": "tp8/pp2/dp4/ga2000000000"}}`,
		`{"job": {"plan": "tp8/pp2/dp4", "plan_bucket_mib": 1e-9}}`,
		`{"job": {"plan": "tp8/pp2/dp4", "plan_bucket_mib": -1}}`,
		// The default victim 6 is not a node of this plan's [0 8 1 9].
		`{"job": {"plan": "tp8/pp2/dp2", "fault": "crash"}}`,
		`{"tenancy": {"trace": {"events": [{"at_s": 1e300, "nodes": 2, "duration_s": 10}]}}}`,
		`{"tenancy": {"trace": {"events": [{"at_s": 0, "nodes": 2, "duration_s": 10, "compute_ms": 1e300}]}}}`,
		`{"tenancy": {"trace": {"events": [{"at_s": 0, "nodes": 4, "duration_s": 10, "pp": 2, "ga": 2000000000}]}}}`,
		`{"tenancy": {"trace": {"events": [{"at_s": 0, "nodes": 2, "duration_s": 10}]}, "horizon_s": 1e30}}`,
	}
	for _, body := range bodies {
		spec, err := decodeSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if _, err := NewSession(SessionOptions{Spec: spec}); err == nil {
			t.Errorf("NewSession accepted %s", body)
		}
	}
	// Values that do not come from JSON but can from Go callers and flags.
	for _, js := range []SessionJob{
		{HorizonS: math.NaN()},
		{FaultAtS: math.Inf(1), Fault: "crash"},
		{Plan: "tp8/pp2/dp4", PlanBucketMiB: math.NaN()},
		{Plan: "tp8/pp2/dp4", PlanBucketMiB: math.Inf(1)},
	} {
		if _, err := NewSession(SessionOptions{Spec: SessionSpec{Job: &js}}); err == nil {
			t.Errorf("NewSession accepted %+v", js)
		}
	}
}

// decodeSpec decodes a session body the way `c4 serve` does.
func decodeSpec(data []byte) (SessionSpec, error) {
	var spec SessionSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
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
