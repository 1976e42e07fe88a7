package job

import (
	"context"
	"testing"

	"c4/internal/accl"
	"c4/internal/c4p"
	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/workload"
)

type rig struct {
	eng  *sim.Engine
	topo *topo.Topology
	net  *netsim.Network
}

func newRig() *rig {
	eng := sim.NewEngine()
	// Paper testbed plus one spare leaf group (2 backup nodes), so node
	// replacement has somewhere to go.
	spec := topo.PaperTestbed()
	spec.Nodes = 18
	tp := topo.MustNew(spec)
	return &rig{eng: eng, topo: tp, net: netsim.New(eng, tp, netsim.DefaultConfig())}
}

func (r *rig) provider() accl.PathProvider {
	return c4p.NewMaster(r.topo, c4p.Static, sim.NewRand(1))
}

func nodes16() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestJob1RunsAndReports(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[0]
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	j.Run(10, func(rp Report) { rep = rp })
	r.eng.Run()
	if rep.Iters != 10 {
		t.Fatalf("iters = %d", rep.Iters)
	}
	if rep.SamplesPerSec <= 0 {
		t.Fatalf("samples/sec = %v", rep.SamplesPerSec)
	}
	// Iteration must exceed pure compute (there is real communication).
	if rep.AvgIter <= spec.IterComputeTime() {
		t.Fatalf("avg iter %v not above compute %v", rep.AvgIter, spec.IterComputeTime())
	}
	// And communication should be a meaningful share (paper: >30% for
	// Job1) but not dominate absurdly.
	commFrac := 1 - float64(spec.IterComputeTime())/float64(rep.AvgIter)
	if commFrac < 0.15 || commFrac > 0.6 {
		t.Fatalf("comm fraction = %.2f, want ≈0.3", commFrac)
	}
}

func TestJob2ZeROPath(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[1]
	if !spec.Par.ZeRO {
		t.Fatal("Job2 must be ZeRO")
	}
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	j.Run(5, func(rp Report) { rep = rp })
	r.eng.Run()
	if rep.Iters != 5 || rep.SamplesPerSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestJob3PipelineGroupsAndLowCommShare(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[2]
	groups, err := spec.DPGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 8 {
		t.Fatalf("PP groups = %d, want 8", len(groups))
	}
	for s, g := range groups {
		if len(g) != 2 || g[0] != s || g[1] != s+8 {
			t.Fatalf("group %d = %v, want [%d %d]", s, g, s, s+8)
		}
	}
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	j.Run(3, func(rp Report) { rep = rp })
	r.eng.Run()
	commFrac := 1 - float64(spec.IterComputeTime())/float64(rep.AvgIter)
	if commFrac > 0.12 {
		t.Fatalf("Job3 comm fraction = %.2f, want small (GA=16)", commFrac)
	}
}

func TestStragglerSlowsIterations(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[0]
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	j.Run(5, func(rp Report) { base = rp })
	r.eng.Run()

	r2 := newRig()
	j2, err := New(Config{
		Engine: r2.eng, Net: r2.net, Provider: c4p.NewMaster(r2.topo, c4p.Static, sim.NewRand(1)),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	j2.SetStraggler(7, 400*sim.Millisecond)
	var slow Report
	j2.Run(5, func(rp Report) { slow = rp })
	r2.eng.Run()
	if slow.AvgIter < base.AvgIter+300*sim.Millisecond {
		t.Fatalf("straggler iter %v vs base %v: BSP should absorb the full delay",
			slow.AvgIter, base.AvgIter)
	}
}

func TestCrashHangsAndReplaceNodeRecovers(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[0]
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	j.Run(50, func(Report) { done = true })
	r.eng.After(2*sim.Second, func() { j.SetCrashed(3, true) })
	r.eng.RunUntil(2 * sim.Minute)
	if done {
		t.Fatal("job finished despite crashed node")
	}
	// Steering-style recovery: stop, replace 3 with spare node 16, rerun.
	j.Stop()
	// Drain pending collective callbacks before rebuilding.
	r.eng.RunFor(sim.Second)
	if err := j.ReplaceNode(3, 16); err != nil {
		t.Fatal(err)
	}
	recovered := false
	j.Run(5, func(Report) { recovered = true })
	r.eng.RunUntil(10 * sim.Minute)
	if !recovered {
		t.Fatal("job did not recover after node replacement")
	}
	for _, n := range j.Nodes() {
		if n == 3 {
			t.Fatal("failed node still assigned")
		}
	}
}

func TestReplaceNodeValidation(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[0]
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.ReplaceNode(99, 16); err == nil {
		t.Fatal("replacing an absent node should fail")
	}
	j.Run(1, nil)
	if err := j.ReplaceNode(0, 16); err == nil {
		t.Fatal("replacing while running should fail")
	}
	r.eng.Run()
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing dependencies accepted")
	}
	r := newRig()
	spec := workload.JobSpec{
		Name: "bad", Model: workload.GPT22B,
		Par:   workload.Parallelism{DP: 4},
		Nodes: []int{0, 1}, // wrong count
	}
	if _, err := New(Config{Engine: r.eng, Net: r.net, Provider: r.provider(), Spec: spec}); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

func TestOnIterationCallback(t *testing.T) {
	r := newRig()
	spec := workload.Fig14Jobs(nodes16())[0]
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var iters []int
	j.OnIteration(func(i int, d sim.Time) {
		iters = append(iters, i)
		if d <= 0 {
			t.Fatalf("iteration %d duration %v", i, d)
		}
	})
	j.Run(4, nil)
	r.eng.Run()
	if len(iters) != 4 || iters[3] != 3 {
		t.Fatalf("iteration callbacks = %v", iters)
	}
	if got := len(j.IterTimes()); got != 4 {
		t.Fatalf("IterTimes = %d", got)
	}
}

func TestContextCancelsPureDPJob(t *testing.T) {
	// Job1 (TP8×DP16, GA=1) cancelled from its second iteration's
	// callback: the third iteration schedules nothing, the job never
	// reports, and the engine drains.
	r := newRig()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: workload.Fig14Jobs(nodes16())[0], Rand: sim.NewRand(2),
		Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.OnIteration(func(i int, _ sim.Time) {
		if i == 1 {
			cancel()
		}
	})
	done := false
	j.Run(10, func(Report) { done = true })
	r.eng.Run()
	if got := len(j.IterTimes()); got != 2 {
		t.Fatalf("IterTimes = %d, want 2: cancellation must stop the job", got)
	}
	if done {
		t.Fatal("cancelled job reported completion")
	}
	if n := r.eng.Pending(); n != 0 {
		t.Fatalf("%d events still queued after cancellation", n)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	p := workload.Parallelism{}.Normalize()
	if p.TP != 1 || p.PP != 1 || p.DP != 1 || p.GA != 1 {
		t.Fatalf("normalize = %+v", p)
	}
	if workload.GPT22B.GradBytesPerRank(workload.Parallelism{TP: 8}) != 22e9*2/8 {
		t.Fatal("grad bytes wrong")
	}
	s := workload.Parallelism{TP: 8, DP: 16, GA: 1}.String()
	if s != "TP8/PP1/DP16/GA1" {
		t.Fatalf("string = %q", s)
	}
	z := workload.Parallelism{DP: 2, ZeRO: true}.String()
	if z != "TP1/PP1/DP2/GA1+ZeRO" {
		t.Fatalf("string = %q", z)
	}
}
