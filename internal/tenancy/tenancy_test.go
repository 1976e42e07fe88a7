package tenancy

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"c4/internal/scenario"
	"c4/internal/sched"
	"c4/internal/sim"
)

func TestGenTraceDeterministicAndRoundTrips(t *testing.T) {
	cfg := ArrivalConfig{
		Window:           60 * sim.Second,
		MeanInterarrival: 5 * sim.Second,
		MeanDuration:     20 * sim.Second,
		Sizes:            []int{2, 4, 8},
		ComputeMS:        150,
	}
	a := GenTrace(cfg, 7)
	b := GenTrace(cfg, 7)
	if len(a.Events) == 0 {
		t.Fatal("generator produced no arrivals")
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Fatal("equal seeds generated different traces")
	}
	if cj, _ := GenTrace(cfg, 8).JSON(); string(cj) == string(aj) {
		t.Fatal("different seeds generated identical traces")
	}
	parsed, err := ParseTrace(aj)
	if err != nil {
		t.Fatalf("generated trace does not re-parse: %v", err)
	}
	if pj, _ := parsed.JSON(); string(pj) != string(aj) {
		t.Fatal("trace did not round-trip through JSON")
	}
}

func TestParseTraceRejectsBadEvents(t *testing.T) {
	cases := map[string]string{
		"no events":     `{"events": []}`,
		"zero nodes":    `{"events": [{"at_s": 0, "nodes": 0, "duration_s": 10}]}`,
		"zero duration": `{"events": [{"at_s": 0, "nodes": 2, "duration_s": 0}]}`,
		"bad arrival":   `{"events": [{"at_s": -1, "nodes": 2, "duration_s": 10}]}`,
		"bad model":     `{"events": [{"at_s": 0, "nodes": 2, "duration_s": 10, "model": "gpt9000"}]}`,
		"not json":      `{"events": [`,
	}
	for name, in := range cases {
		if _, err := ParseTrace([]byte(in)); err == nil {
			t.Errorf("%s: ParseTrace accepted %s", name, in)
		}
	}
}

func TestQueueingFIFOAndRejection(t *testing.T) {
	res := Run(Config{
		Horizon: 60 * sim.Second,
		Seed:    1,
		Trace: Trace{Events: []TraceEvent{
			{AtS: 0, Name: "big", Nodes: 12, DurationS: 10},
			{AtS: 1, Name: "queued", Nodes: 8, DurationS: 10},
			{AtS: 2, Name: "huge", Nodes: 32, DurationS: 10},
		}},
	})
	byName := map[string]JobStat{}
	for _, s := range res.Jobs {
		byName[s.Name] = s
	}
	big, queued, huge := byName["big"], byName["queued"], byName["huge"]
	if !big.Admitted || big.Start != big.Arrive {
		t.Fatalf("big not admitted immediately: %+v", big)
	}
	if !queued.Admitted {
		t.Fatalf("queued job never admitted: %+v", queued)
	}
	if queued.Start < big.End {
		t.Fatalf("queued started at %v before big departed at %v", queued.Start, big.End)
	}
	if !huge.Rejected || res.Rejected != 1 {
		t.Fatalf("oversized job not rejected: %+v (rejected=%d)", huge, res.Rejected)
	}
	if big.Iters == 0 || queued.Iters == 0 {
		t.Fatalf("admitted jobs made no progress: big=%d queued=%d iters", big.Iters, queued.Iters)
	}
}

func TestSharedFabricContention(t *testing.T) {
	// Two spread jobs on the shared network must each run slower than a
	// job alone — if cross-job contention weren't real, the whole tenancy
	// layer would be theater.
	solo := Run(Config{
		Spines: 4, Policy: sched.PolicySpread, Arm: ArmPinnedECMP,
		Horizon: 30 * sim.Second, Seed: 1,
		Trace: uniformTrace(1, 4, 60, 150),
	})
	pair := Run(Config{
		Spines: 4, Policy: sched.PolicySpread, Arm: ArmPinnedECMP,
		Horizon: 30 * sim.Second, Seed: 1,
		Trace: uniformTrace(2, 4, 60, 150),
	})
	if solo.Admitted != 1 || pair.Admitted != 2 {
		t.Fatalf("admissions: solo=%d pair=%d", solo.Admitted, pair.Admitted)
	}
	soloPerJob := solo.AggGoodput
	pairPerJob := pair.AggGoodput / 2
	if pairPerJob >= soloPerJob {
		t.Fatalf("no contention visible: %.1f samples/s per job alone vs %.1f sharing", soloPerJob, pairPerJob)
	}
}

// TestReplayDeterminism is the acceptance gate for the scenario family:
// every tenancy scenario must render byte-identically across repeated
// same-seed runs and between a serial (Workers=1) and a parallel
// (Workers=8) execution of its internal sweep.
func TestReplayDeterminism(t *testing.T) {
	runs := map[string]func(*scenario.Ctx) scenario.Result{
		"collision-sweep":   func(c *scenario.Ctx) scenario.Result { return RunCollisionSweep(c) },
		"churn":             func(c *scenario.Ctx) scenario.Result { return RunChurn(c) },
		"placement-compare": func(c *scenario.Ctx) scenario.Result { return RunPlacementCompare(c) },
	}
	for name, run := range runs {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				ctx := scenario.NewCtx(1)
				ctx.Workers = workers
				res := run(ctx)
				if err := res.CheckShape(); err != nil {
					t.Fatalf("shape check: %v\n%s", err, res)
				}
				return res.String()
			}
			serial := render(1)
			if again := render(1); again != serial {
				t.Fatalf("repeated same-seed run diverged:\n%s\nvs\n%s", serial, again)
			}
			if parallel := render(8); parallel != serial {
				t.Fatalf("parallel run diverged from serial:\n%s\nvs\n%s", parallel, serial)
			}
			if serial == "" || !strings.Contains(serial, "tenancy") {
				t.Fatalf("suspicious rendering:\n%s", serial)
			}
		})
	}
}

// TestCollisionSweepC4PWins pins the headline acceptance criterion
// directly: C4P beats pinned ECMP on aggregate goodput at >= 2 jobs.
func TestCollisionSweepC4PWins(t *testing.T) {
	res := RunCollisionSweep(scenario.NewCtx(1))
	for i, n := range res.JobCounts {
		if n < 2 {
			continue
		}
		if res.C4P[i].AggGoodput <= res.ECMP[i].AggGoodput {
			t.Errorf("%d jobs: C4P %.1f <= ECMP %.1f samples/s",
				n, res.C4P[i].AggGoodput, res.ECMP[i].AggGoodput)
		}
	}
}

func TestGenTraceDegenerateConfigs(t *testing.T) {
	// A zero mean interarrival must not spin forever (Exp(0) draws 0).
	tr := GenTrace(ArrivalConfig{Window: 30 * sim.Second}, 1)
	if len(tr.Events) == 0 {
		t.Fatal("defaulted config generated no arrivals")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("defaulted trace invalid: %v", err)
	}
	if got := GenTrace(ArrivalConfig{}, 1); len(got.Events) != 0 {
		t.Fatalf("zero window generated %d events, want none", len(got.Events))
	}
}

func TestBeyondHorizonArrivalsNotCountedAsQueued(t *testing.T) {
	res := Run(Config{
		Horizon: 30 * sim.Second,
		Seed:    1,
		Trace: Trace{Events: []TraceEvent{
			{AtS: 0, Name: "now", Nodes: 2, DurationS: 10},
			{AtS: 120, Name: "later", Nodes: 2, DurationS: 10},
		}},
	})
	if res.Admitted != 1 || res.BeyondHorizon != 1 || res.NeverAdmitted != 0 {
		t.Fatalf("admitted=%d beyond=%d queued-out=%d, want 1/1/0",
			res.Admitted, res.BeyondHorizon, res.NeverAdmitted)
	}
	if !strings.Contains(res.String(), "future") {
		t.Fatalf("rendering should mark the unarrived job as future:\n%s", res)
	}
}

func TestArmProviders(t *testing.T) {
	// All three arms must run the same workload; the static and dynamic
	// C4P arms must both beat pinned ECMP under spread contention.
	goodput := map[Arm]float64{}
	for _, arm := range []Arm{ArmPinnedECMP, ArmC4PStatic, ArmC4P} {
		res := Run(Config{
			Spines: 4, Policy: sched.PolicySpread, Arm: arm,
			Horizon: 30 * sim.Second, Seed: 1,
			Trace: uniformTrace(2, 4, 60, 150),
		})
		if res.Admitted != 2 {
			t.Fatalf("arm %v admitted %d jobs", arm, res.Admitted)
		}
		goodput[arm] = res.AggGoodput
	}
	if goodput[ArmC4PStatic] <= goodput[ArmPinnedECMP] || goodput[ArmC4P] <= goodput[ArmPinnedECMP] {
		t.Fatalf("C4P arms should beat pinned ECMP: %v", goodput)
	}
}

func TestChurnExercisesLifecycle(t *testing.T) {
	res := RunChurn(scenario.NewCtx(1))
	if err := res.CheckShape(); err != nil {
		t.Fatalf("churn shape: %v\n%s", err, res)
	}
	if res.Completed == 0 {
		t.Fatal("no job departed: churn without churn")
	}
	if res.Fired() == 0 {
		t.Fatal("event counter not wired")
	}
}

// TestDegenerateRunsProduceFiniteMetrics guards the c4 bench -json path:
// empty traces and zero-duration tenants must yield finite, serializable
// aggregates (Jain/goodput/stretch are 0, never NaN).
func TestDegenerateRunsProduceFiniteMetrics(t *testing.T) {
	runs := []RunResult{
		Run(Config{Horizon: 10 * sim.Second, Seed: 1, Trace: Trace{}}),
		Run(Config{Horizon: 10 * sim.Second, Seed: 1, Trace: Trace{Events: []TraceEvent{
			{AtS: 1, Name: "blink", Nodes: 2, DurationS: 0, ComputeMS: 150},
		}}}),
	}
	for i, res := range runs {
		for name, v := range map[string]float64{
			"agg_goodput": res.AggGoodput, "jain": res.Jain, "mean_stretch": res.MeanStretch,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("run %d: %s = %v", i, name, v)
			}
		}
		if _, err := json.Marshal(map[string]float64{
			"agg": res.AggGoodput, "jain": res.Jain, "stretch": res.MeanStretch,
		}); err != nil {
			t.Fatalf("run %d: metrics not serializable: %v", i, err)
		}
		for _, s := range res.Jobs {
			if math.IsNaN(s.Goodput) || math.IsNaN(s.Stretch) {
				t.Fatalf("run %d: job %s leaked NaN: %+v", i, s.Name, s)
			}
		}
	}
}

func TestPipelineTenantRunsThePlannedSchedule(t *testing.T) {
	// A PP2/GA2 tenant next to a pure-DP one: both must progress, and the
	// pipeline tenant's spec must compile to stages rather than pure DP.
	trace := Trace{Events: []TraceEvent{
		{AtS: 0, Name: "pipe", Nodes: 4, DurationS: 30, PP: 2, GA: 2, ComputeMS: 150},
		{AtS: 0.5, Name: "flat", Nodes: 4, DurationS: 30, ComputeMS: 150},
	}}
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	spec := trace.Events[0].Spec([]int{0, 1, 2, 3})
	if spec.Par.PP != 2 || spec.Par.DP != 2 || spec.Par.GA != 2 {
		t.Fatalf("pipeline spec parallelism = %v, want TP8/PP2/DP2/GA2", spec.Par)
	}
	res := Run(Config{Horizon: 40 * sim.Second, Seed: 3, Trace: trace})
	for _, s := range res.Jobs {
		if !s.Admitted || s.Iters == 0 {
			t.Fatalf("%s made no progress: %+v", s.Name, s)
		}
	}
}

func TestTraceValidateRejectsBadParallelism(t *testing.T) {
	cases := map[string]TraceEvent{
		"pp not dividing": {AtS: 0, Nodes: 3, DurationS: 5, PP: 2},
		"negative pp":     {AtS: 0, Nodes: 4, DurationS: 5, PP: -1},
		"negative ga":     {AtS: 0, Nodes: 4, DurationS: 5, GA: -2},
	}
	for name, ev := range cases {
		if err := (Trace{Events: []TraceEvent{ev}}).Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, ev)
		}
	}
}
