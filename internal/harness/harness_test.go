package harness

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"c4/internal/c4p"
	"c4/internal/scenario"
	"c4/internal/telemetry"
	"c4/internal/topo"
)

// testScenarios returns the registered set under test, honoring -short by
// dropping the slow sweeps (scale/time-horizon scenarios) consistently.
func testScenarios(t *testing.T) []scenario.Scenario {
	t.Helper()
	var out []scenario.Scenario
	for _, s := range scenario.All() {
		if testing.Short() && s.Slow {
			continue
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		t.Fatal("no scenarios registered")
	}
	return out
}

// TestScenarios is the harness's main test: every registered experiment
// must satisfy its own shape check — the paper's qualitative claims — and
// the parallel runner must reproduce a serial execution bit for bit.
//
// Both arms run concurrently: the worker-pool runner executes the whole
// set while each subtest independently re-runs its scenario serially with
// the same seed, then the renderings are compared byte for byte. The
// engine's seq-ordered event queue promises this equality; this test
// proves it (run with -race to also prove the runner shares no state).
func TestScenarios(t *testing.T) {
	const seed = 1
	scns := testScenarios(t)

	var reports []scenario.Report
	parallelDone := make(chan struct{})
	go func() {
		defer close(parallelDone)
		r := &scenario.Runner{Workers: runtime.GOMAXPROCS(0)}
		reports = r.Run(context.Background(), seed, scns)
	}()

	serial := make([]string, len(scns))
	t.Run("serial", func(t *testing.T) {
		for i, s := range scns {
			i, s := i, s
			t.Run(s.Name, func(t *testing.T) {
				t.Parallel()
				res := s.Run(scenario.NewCtx(seed))
				if err := res.CheckShape(); err != nil {
					t.Fatalf("shape check: %v\n%s", err, res)
				}
				if check := extraChecks[s.Name]; check != nil {
					check(t, res)
				}
				serial[i] = res.String()
			})
		}
	})

	<-parallelDone
	for i, rep := range reports {
		if rep.Err != nil {
			t.Errorf("parallel runner: %v", rep.Err)
			continue
		}
		if rep.ShapeErr != nil {
			t.Errorf("parallel runner: %s shape check: %v", rep.Name, rep.ShapeErr)
		}
		if got := rep.Result.String(); got != serial[i] {
			t.Errorf("scenario %s: parallel run diverged from serial run\nparallel:\n%s\nserial:\n%s",
				rep.Name, got, serial[i])
		}
		if serial[i] == "" {
			t.Errorf("scenario %s: empty rendering", rep.Name)
		}
	}
}

// extraChecks holds per-experiment assertions stricter than the shape
// checks: rendering content the CLIs rely on, sampling density, and
// magnitude bounds the paper claims but CheckShape only loosely enforces.
var extraChecks = map[string]func(*testing.T, scenario.Result){
	"tableI": func(t *testing.T, r scenario.Result) {
		if !strings.Contains(r.String(), "NCCL Error") {
			t.Fatal("rendering missing user-view column")
		}
	},
	"tableIII": func(t *testing.T, r scenario.Result) {
		out := r.String()
		for _, want := range []string{"Post-Checkpoint", "Diagnosis", "reduction"} {
			if !strings.Contains(out, want) {
				t.Fatalf("rendering missing %q", want)
			}
		}
	},
	"fig11": func(t *testing.T, r scenario.Result) {
		f := r.(Fig11Result)
		if len(f.Ports) != 16 {
			t.Fatalf("ports = %d, want 16", len(f.Ports))
		}
		for _, s := range f.Ports {
			if s.Len() < 40 {
				t.Fatalf("series %s too short: %d samples", s.Name, s.Len())
			}
		}
	},
	"fig12": func(t *testing.T, r scenario.Result) {
		f := r.(Fig12Result)
		// Static must be clearly hurt relative to dynamic (paper: 62.3%).
		if f.Dynamic.PostFailAvg/f.Static.PostFailAvg < 1.2 {
			t.Fatalf("dynamic/static post-failure ratio too small:\n%s", f)
		}
	},
	// The tentpole claim of the streaming subsystem, asserted beyond the
	// shape check: every fault kind must be detected online strictly
	// before the batch master, by a real margin on the slow syndromes.
	"online/detection-latency": func(t *testing.T, r scenario.Result) {
		res := r.(*telemetry.DetectionLatencyResult)
		if len(res.Trials) != 3 {
			t.Fatalf("trials = %d, want 3", len(res.Trials))
		}
		for _, tr := range res.Trials {
			if s := tr.Speedup(); s <= 1 {
				t.Fatalf("%s: online speedup %.2fx, want > 1x", tr.Kind, s)
			}
			if tr.Kind != "spine-outage" && tr.Speedup() < 2 {
				t.Fatalf("%s: sub-tick detection should beat the 5s window handily, got %.2fx",
					tr.Kind, tr.Speedup())
			}
			if tr.OnlineFalseAlarms != 0 {
				t.Fatalf("%s: %d online false alarms", tr.Kind, tr.OnlineFalseAlarms)
			}
		}
	},
}

// TestRunnerStats checks the runner's per-scenario accounting on a real
// event-driven scenario: wall time is measured and every engine the run
// builds feeds the event counter.
func TestRunnerStats(t *testing.T) {
	s, ok := scenario.Get("fig9")
	if !ok {
		t.Fatal("fig9 not registered")
	}
	rep := scenario.RunOne(context.Background(), s, 1)
	if rep.Err != nil || rep.ShapeErr != nil {
		t.Fatalf("fig9: err=%v shape=%v", rep.Err, rep.ShapeErr)
	}
	if rep.Events == 0 {
		t.Fatal("fig9 fired no counted events")
	}
	if rep.Wall <= 0 {
		t.Fatal("wall time not measured")
	}
}

// TestRegistryCoversHarness pins the registry contents: every paper
// experiment must be runnable by name.
func TestRegistryCoversHarness(t *testing.T) {
	for _, name := range []string{
		"tableI", "tableIII", "fig3", "fig9", "fig10a", "fig10b", "fig11",
		"fig12", "fig13", "fig14", "pipeline", "nccltest", "analyzer-demo",
		"ablation-plane", "ablation-algo", "ablation-ckpt", "ablation-kappa",
		"ablation-qp", "campaign/flap-sweep", "campaign/degrade-sweep",
		"campaign/outage-sweep", "campaign/straggler-sweep", "campaign/mixed",
		"online/detection-latency", "online/cadence-sweep", "online/scale-sweep",
		"netsim/scale-aggregate", "netsim/scale-parallel", "netsim/scale-sweep",
	} {
		if _, ok := scenario.Get(name); !ok {
			t.Errorf("scenario %q not registered", name)
		}
	}
	for _, s := range scenario.All() {
		if s.Group == "" || s.Description == "" || s.Paper == "" {
			t.Errorf("scenario %q missing metadata", s.Name)
		}
		if s.Summarize == nil {
			t.Errorf("scenario %q has no summarizer", s.Name)
		}
	}
}

// TestSummarizersMatchResults runs one cheap scenario end to end and
// checks its one-line headline renders from the typed result.
func TestSummarizersMatchResults(t *testing.T) {
	s, _ := scenario.Get("tableI")
	rep := scenario.RunOne(context.Background(), s, 1)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if line := s.Summarize(rep.Result); !strings.Contains(line, "local") {
		t.Fatalf("tableI headline = %q", line)
	}
}

// TestMetricsExtractors runs two cheap tracked scenarios end to end and
// checks their bench-guard metrics render from the typed results.
func TestMetricsExtractors(t *testing.T) {
	for _, name := range []string{"tableI", "nccltest"} {
		s, ok := scenario.Get(name)
		if !ok || s.Metrics == nil {
			t.Fatalf("scenario %q missing or untracked", name)
		}
		rep := scenario.RunOne(context.Background(), s, 1)
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		m := s.Metrics(rep.Result)
		if len(m) == 0 {
			t.Fatalf("scenario %q produced no metrics", name)
		}
		for k, v := range m {
			if v != v { // NaN
				t.Fatalf("scenario %q metric %q is NaN", name, k)
			}
		}
	}
}

func TestSeedsAreDeterministic(t *testing.T) {
	a, b := RunFig9(7), RunFig9(7)
	for i := range a.GPUs {
		if a.Baseline[i] != b.Baseline[i] || a.C4P[i] != b.C4P[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestDifferentSeedsVaryBaseline(t *testing.T) {
	// Two ECMP draws on the collision-prone interleaved placement: with
	// different seeds the hash outcomes (and hence busbw) must differ.
	run := func(seed int64) float64 {
		e := NewEnv(topo.MultiJobTestbed(8))
		b, err := StartBench(e, BenchConfig{
			Nodes: InterleavedNodes(8), Bytes: 64 << 20, Iters: 2,
			Provider: e.NewProvider(c4p.Baseline, seed), QPsPerConn: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Eng.Run()
		return b.MeanBusGbps()
	}
	a, b, c := run(3), run(4), run(5)
	if a == b && b == c {
		t.Fatalf("three seeds produced identical ECMP baselines (%.1f)", a)
	}
}

func TestInterleavedNodes(t *testing.T) {
	got := InterleavedNodes(4)
	want := []int{0, 8, 1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InterleavedNodes(4) = %v", got)
		}
	}
	spec := topo.MultiJobTestbed(8)
	tp := topo.MustNew(spec)
	nodes := InterleavedNodes(16)
	for i := 0; i+1 < len(nodes); i++ {
		if tp.Group(nodes[i]) == tp.Group(nodes[i+1]) {
			t.Fatalf("adjacent ring nodes %d,%d share a group", nodes[i], nodes[i+1])
		}
	}
}

func TestProviderKinds(t *testing.T) {
	e := NewEnv(topo.MultiJobTestbed(8))
	for _, k := range []c4p.ProviderKind{c4p.Baseline, c4p.C4PStatic, c4p.C4PDynamic} {
		if e.NewProvider(k, 1) == nil {
			t.Fatalf("provider %v is nil", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("provider %v has no label", k)
		}
	}
}
