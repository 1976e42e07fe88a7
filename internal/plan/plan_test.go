package plan

import (
	"testing"

	"c4/internal/sim"
	"c4/internal/workload"
)

func testSpec(pp, dp, ga int, nodes int) workload.JobSpec {
	ns := make([]int, nodes)
	for i := range ns {
		ns[i] = i
	}
	return workload.JobSpec{
		Name:                 "t",
		Model:                workload.GPT22B,
		Par:                  workload.Parallelism{TP: 8, PP: pp, DP: dp, GA: ga},
		Nodes:                ns,
		ComputePerMicroBatch: 300 * sim.Millisecond,
		SamplesPerIter:       64,
	}
}

func mustCompile(t *testing.T, spec workload.JobSpec, opts Options) *Plan {
	t.Helper()
	p, err := Compile(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stubFabric resolves every transfer analytically: p2p after a fixed
// latency, DP sync after a byte-proportional latency (nsPerByte), so
// schedule timing is checkable without a network model.
func stubFabric(eng *sim.Engine, p2pLat sim.Time, nsPerByte float64) Fabric {
	return Fabric{
		Engine: eng,
		P2P: func(_, _, _ int, _ float64, ready sim.Time, done func(sim.Time)) {
			eng.Schedule(ready+p2pLat, func() { done(ready + p2pLat) })
		},
		DPSync: func(_ int, bytes float64, arrivals []sim.Time, done func(sim.Time)) {
			at := eng.Now()
			for _, a := range arrivals {
				if a > at {
					at = a
				}
			}
			end := at + sim.Time(nsPerByte*bytes)
			eng.Schedule(end, func() { done(end) })
		},
	}
}

func TestCompileValidates(t *testing.T) {
	spec := testSpec(2, 2, 4, 4)
	spec.Nodes = spec.Nodes[:3]
	if _, err := Compile(spec, Options{}); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

func TestStageOrderIs1F1B(t *testing.T) {
	// PP=4, GA=8: stage 0 does 3 warmup forwards; last stage alternates
	// from the start; every stage runs 2*GA slots covering each
	// micro-batch exactly once per direction.
	p := mustCompile(t, testSpec(4, 1, 8, 4), Options{})
	for s, order := range p.Order {
		if len(order) != 16 {
			t.Fatalf("stage %d: %d slots, want 16", s, len(order))
		}
		seen := map[Task]bool{}
		bwdSeen := 0
		for i, task := range order {
			if seen[task] {
				t.Fatalf("stage %d repeats %v", s, task)
			}
			seen[task] = true
			if task.Kind == Bwd {
				bwdSeen++
				// 1F1B invariant: bwd(m) only after fwd(m) on this stage.
				if !seen[Task{Fwd, task.MB}] {
					t.Fatalf("stage %d: bwd(%d) before fwd(%d) at slot %d", s, task.MB, task.MB, i)
				}
			}
		}
		if bwdSeen != 8 {
			t.Fatalf("stage %d: %d backwards, want 8", s, bwdSeen)
		}
	}
	// Warmup depth: stage s starts with min(GA, PP-1-s) forwards.
	for s, warm := range []int{3, 2, 1, 0} {
		for i := 0; i < warm; i++ {
			if p.Order[s][i].Kind != Fwd {
				t.Fatalf("stage %d slot %d: %v, want warmup fwd", s, i, p.Order[s][i])
			}
		}
		if warm < len(p.Order[s]) && s == len(p.Order)-1 && p.Order[s][1].Kind != Bwd {
			t.Fatalf("last stage must alternate immediately: %v", p.Order[s][:2])
		}
	}
}

func TestSplitBuckets(t *testing.T) {
	cases := []struct {
		total, bucket float64
		n             int
	}{
		{100, 0, 1},
		{100, 200, 1},
		{100, 25, 4},
		{100, 30, 4}, // 30+30+30+10
	}
	for _, c := range cases {
		got := splitBuckets(c.total, c.bucket)
		if len(got) != c.n {
			t.Fatalf("splitBuckets(%v, %v) = %v, want %d buckets", c.total, c.bucket, got, c.n)
		}
		var sum float64
		for _, b := range got {
			sum += b
		}
		if sum != c.total {
			t.Fatalf("splitBuckets(%v, %v) sums to %v", c.total, c.bucket, sum)
		}
	}
}

func TestExecPurePipelineMatchesBubbleFormula(t *testing.T) {
	// DP=1, no jitter, instant transfers: the 1F1B iteration must last
	// exactly (GA + PP - 1) micro-batch slots, the textbook bubble.
	eng := sim.NewEngine()
	p := mustCompile(t, testSpec(4, 1, 8, 4), Options{})
	var stats IterStats
	p.ExecIter(nil, stubFabric(eng, 0, 0), IterTiming{}, func(s IterStats) { stats = s })
	eng.Run()
	if stats.End == 0 {
		t.Fatal("iteration never completed")
	}
	want := sim.Time(8+4-1) * 300 * sim.Millisecond
	if stats.IterTime() != want {
		t.Fatalf("iter = %v, want %v (GA+PP-1 slots)", stats.IterTime(), want)
	}
	if stats.MaxBusy != 8*300*sim.Millisecond {
		t.Fatalf("busy = %v, want GA slots", stats.MaxBusy)
	}
	if stats.Bubble != 3*300*sim.Millisecond {
		t.Fatalf("bubble = %v, want (PP-1) slots", stats.Bubble)
	}
	if stats.Exposed != 0 {
		t.Fatalf("exposed = %v, want 0 without DP traffic", stats.Exposed)
	}
}

func TestExecOverlapHidesSyncTail(t *testing.T) {
	// One stage, GA=2, a sync that costs 100 ms for the full gradient.
	// With a single bucket the sync starts at backward-drain end and is
	// fully exposed; with overlap and four buckets the early buckets
	// hide behind the remaining backward compute.
	grad := workload.GPT22B.GradBytesPerRank(workload.Parallelism{TP: 8})
	nsPerByte := float64(100*sim.Millisecond) / grad
	run := func(opts Options) IterStats {
		eng := sim.NewEngine()
		p := mustCompile(t, testSpec(1, 2, 2, 2), opts)
		var stats IterStats
		p.ExecIter(nil, stubFabric(eng, 0, nsPerByte), IterTiming{}, func(s IterStats) { stats = s })
		eng.Run()
		return stats
	}
	off := run(Options{})
	on := run(Options{Overlap: true, BucketBytes: grad / 4})
	if want := sim.Time(nsPerByte * grad); off.Exposed != want {
		t.Fatalf("exposed(off) = %v, want the full sync latency %v", off.Exposed, want)
	}
	if on.Exposed >= off.Exposed {
		t.Fatalf("exposed(on) = %v, want < %v", on.Exposed, off.Exposed)
	}
	if on.IterTime() >= off.IterTime() {
		t.Fatalf("iter(on) = %v, want < iter(off) = %v", on.IterTime(), off.IterTime())
	}
}

func TestExecP2PLatencyStallsPipeline(t *testing.T) {
	// A slow activation path inflates the bubble, not the busy time.
	run := func(lat sim.Time) IterStats {
		eng := sim.NewEngine()
		p := mustCompile(t, testSpec(2, 1, 2, 2), Options{})
		var stats IterStats
		p.ExecIter(nil, stubFabric(eng, lat, 0), IterTiming{}, func(s IterStats) { stats = s })
		eng.Run()
		return stats
	}
	fast, slow := run(0), run(50*sim.Millisecond)
	if slow.MaxBusy != fast.MaxBusy {
		t.Fatalf("busy changed with p2p latency: %v vs %v", slow.MaxBusy, fast.MaxBusy)
	}
	if slow.Bubble <= fast.Bubble {
		t.Fatalf("bubble = %v, want > %v under slow activations", slow.Bubble, fast.Bubble)
	}
}

func TestExecStragglerExtraSlowsIteration(t *testing.T) {
	run := func(extra sim.Time) IterStats {
		eng := sim.NewEngine()
		p := mustCompile(t, testSpec(2, 2, 2, 4), Options{})
		tm := IterTiming{Scale: [][]float64{{1, 1}, {1, 1}}, Extra: [][]sim.Time{{extra, 0}, {0, 0}}}
		var stats IterStats
		p.ExecIter(nil, stubFabric(eng, 0, 0), tm, func(s IterStats) { stats = s })
		eng.Run()
		return stats
	}
	base, slow := run(0), run(40*sim.Millisecond)
	// The straggler's whole per-iteration penalty lands on one node, and
	// every node is on the critical path of its replica.
	if slow.IterTime() <= base.IterTime() {
		t.Fatalf("iter = %v, want > %v with a straggler", slow.IterTime(), base.IterTime())
	}
	if slow.MaxBusy <= base.MaxBusy {
		t.Fatalf("busy = %v, want > %v with a straggler", slow.MaxBusy, base.MaxBusy)
	}
}

func TestExecTelescopesComputeExactly(t *testing.T) {
	// Pure DP, GA=3: each node's six slots must last exactly its scaled
	// compute, truncated once, plus its whole straggler penalty. At 1.13
	// six separately truncated slots would sum 5 ns short of the product,
	// and adding Extra to every slot would overshoot by 5*Extra. No slot
	// ships a tensor, so the stub's one bucket sync is the only event.
	eng := sim.NewEngine()
	spec := testSpec(1, 2, 3, 2)
	p := mustCompile(t, spec, Options{})
	scale := 1.13
	tm := IterTiming{Scale: [][]float64{{scale}, {0.91}}, Extra: [][]sim.Time{{7}, {0}}}
	var stats IterStats
	p.ExecIter(nil, stubFabric(eng, 0, 0), tm, func(s IterStats) { stats = s })
	eng.Run()
	want := sim.Time(float64(3*spec.ComputePerMicroBatch)*scale) + 7
	if stats.MaxBusy != want {
		t.Fatalf("busy = %d ns, want trunc(3*C*1.13) + 7 ns = %d ns", stats.MaxBusy, want)
	}
	if stats.IterTime() != want || stats.Bubble != 0 || stats.Exposed != 0 {
		t.Fatalf("stats = %+v, want iter = busy = %d ns, no bubble or exposed tail", stats, want)
	}
	if got := eng.Fired(); got != 1 {
		t.Fatalf("fired %d events, want 1 (the bucket sync only)", got)
	}
}

func TestDefaultActivationBytesScale(t *testing.T) {
	par := workload.Parallelism{TP: 8, PP: 4, DP: 2, GA: 8}
	act := DefaultActivationBytes(workload.GPT175B, par)
	grad := workload.GPT175B.GradBytesPerRank(par)
	// One iteration's pipeline traffic per cut (GA fwd + GA bwd tensors)
	// must stay a minority of the DP volume.
	if total := act * float64(2*8); total >= grad {
		t.Fatalf("pipeline traffic %.0f >= DP volume %.0f", total, grad)
	}
	if act <= 0 {
		t.Fatal("activation bytes must be positive")
	}
}
