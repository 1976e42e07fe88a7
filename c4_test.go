package c4

// End-to-end tests through the public facade: everything a downstream user
// touches must work without reaching into internal packages.

import (
	"context"
	"testing"
)

func TestFacadeAllReduceECMPvsC4P(t *testing.T) {
	run := func(kind ProviderKind) float64 {
		env := mustEnv(t, MultiJobTestbed(8))
		comm, err := NewCommunicator(CommConfig{
			Engine: env.Eng, Net: env.Net, Provider: env.NewProvider(kind, 1),
		}, []int{0, 8, 1, 9})
		if err != nil {
			t.Fatal(err)
		}
		var busbw float64
		comm.AllReduce(256<<20, nil, func(r CollResult) { busbw = r.BusGbps })
		env.Eng.Run()
		return busbw
	}
	base, planned := run(BaselineECMP), run(C4PStatic)
	if planned < 330 {
		t.Fatalf("C4P busbw = %.1f, want ≈362", planned)
	}
	if base >= planned {
		t.Fatalf("baseline (%.1f) should trail C4P (%.1f)", base, planned)
	}
}

func TestFacadeC4DPipeline(t *testing.T) {
	env := mustEnv(t, PaperTestbed())
	master := NewC4DMaster(C4DConfig{})
	fleet := NewC4DFleet(env.Eng, master)
	var events []C4DEvent
	master.Subscribe(func(ev C4DEvent) { events = append(events, ev) })

	comm, err := NewCommunicator(CommConfig{
		Engine: env.Eng, Net: env.Net,
		Provider: mustC4PMaster(t, env.Topo),
		Sink:     fleet,
	}, []int{0, 2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	var iterate func()
	iterate = func() {
		comm.AllReduce(64<<20, nil, func(CollResult) { iterate() })
	}
	iterate()
	env.Eng.Schedule(10*Second, func() { comm.SetCrashed(4, true) })
	env.Eng.RunUntil(2 * Minute)
	fleet.Stop()

	if len(events) == 0 {
		t.Fatal("no C4D events through the facade")
	}
	if events[0].Syndrome != NonCommHang || events[0].Node != 4 {
		t.Fatalf("first event = %v, want non-comm-hang node 4", events[0])
	}
}

func TestFacadeJobAndWorkloads(t *testing.T) {
	env := mustEnv(t, MultiJobTestbed(8))
	spec := JobSpec{
		Name:                 "facade-test",
		Model:                GPT22B,
		Par:                  Parallelism{TP: 8, DP: 4, GA: 1},
		Nodes:                []int{0, 8, 1, 9},
		ComputePerMicroBatch: 300 * Millisecond,
		SamplesPerIter:       16,
	}
	j, err := NewJob(JobConfig{
		Engine: env.Eng, Net: env.Net,
		Provider: env.NewProvider(C4PStatic, 1),
		Spec:     spec, Rand: NewRand(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep JobReport
	j.Run(3, func(r JobReport) { rep = r })
	env.Eng.Run()
	if rep.Iters != 3 || rep.SamplesPerSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestFacadeOperationalSubsystems(t *testing.T) {
	env := mustEnv(t, MultiJobTestbed(8))

	// Scheduler packs a leaf group.
	sc := NewScheduler(env.Topo)
	nodes, err := sc.Allocate(8)
	if err != nil {
		t.Fatal(err)
	}
	g := env.Topo.Group(nodes[0])
	for _, n := range nodes {
		if env.Topo.Group(n) != g {
			t.Fatalf("allocation spans groups: %v", nodes)
		}
	}

	// Checkpoint manager bounds lost work.
	cm := NewCheckpointManager(env.Eng, CheckpointConfig{Interval: 5})
	for i := 1; i <= 17; i++ {
		cm.OnIteration(i, []int{0, 1})
	}
	if lost := cm.LostIterations(17, 0); lost != 2 {
		t.Fatalf("lost = %d, want 2", lost)
	}

	// RCA turns telemetry into a ranked cause.
	an := NewRCAnalyzer(0)
	an.Observe(Telemetry{Time: Minute, Kind: 1 /* ECC */, Node: 3})
	rep := an.Classify(C4DEvent{Time: 2 * Minute, Syndrome: NonCommHang, Node: 3, Peer: -1})
	if rep.Top().Confidence <= 0 {
		t.Fatalf("rca report = %v", rep)
	}

	// Fault injector and machines.
	inj := NewMachines(4, 8, 2)
	if inj.SpareCount() != 2 {
		t.Fatal("machines facade broken")
	}
}

func TestFacadeExperimentRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runners covered in internal/harness")
	}
	// Two cheap experiments end-to-end through the facade's runner.
	for _, name := range []string{"tableI", "ablation-kappa"} {
		s, ok := GetScenario(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		if rep := RunScenario(context.Background(), s, 1); rep.Err != nil || rep.ShapeErr != nil {
			t.Fatalf("%s: err=%v shape=%v", name, rep.Err, rep.ShapeErr)
		}
	}
}

func TestFacadeScenarioRegistry(t *testing.T) {
	// The paper's experiments arrive with the facade import.
	if len(Scenarios()) == 0 {
		t.Fatal("no scenarios registered through the facade")
	}
	s, ok := GetScenario("nccltest")
	if !ok {
		t.Fatal("nccltest scenario missing")
	}
	rep := RunScenario(context.Background(), s, 1)
	if rep.Err != nil || rep.ShapeErr != nil {
		t.Fatalf("nccltest: err=%v shape=%v", rep.Err, rep.ShapeErr)
	}

	// Downstream users can register and select their own workloads. The
	// registry is process-global, so guard against re-registration when
	// the test binary reruns in one process (go test -count=N).
	if _, dup := GetScenario("facade-custom"); !dup {
		RegisterScenario(Scenario{
			Name: "facade-custom", Group: "test", Description: "facade registration",
			Paper: "n/a",
			Run: func(c *ScenarioCtx) ScenarioResult {
				return RunScenario(c.Context, s, c.Seed).Result
			},
		})
	}
	sel, err := SelectScenarios("facade-custom")
	if err != nil || len(sel) != 1 {
		t.Fatalf("SelectScenarios = %v, %v", sel, err)
	}
	runner := &ScenarioRunner{Workers: 2}
	reps := runner.Run(context.Background(), 1, append(sel, s))
	if reps[0].Err != nil || reps[1].Err != nil {
		t.Fatalf("runner through facade: %+v", reps)
	}
	if reps[0].Result.String() != reps[1].Result.String() {
		t.Fatal("custom wrapper diverged from direct run")
	}
}

// mustEnv exercises the options-struct constructor the facade now centers
// on; every facade test environment flows through it.
func mustEnv(t *testing.T, spec ClusterSpec) *Env {
	t.Helper()
	env, err := OpenEnv(EnvOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func mustC4PMaster(t *testing.T, topo *Topology) *C4PMaster {
	t.Helper()
	m, err := OpenC4PMaster(C4PMasterOptions{Topology: topo, Mode: C4PStaticMode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}
