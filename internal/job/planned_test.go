package job

import (
	"testing"

	"c4/internal/plan"
	"c4/internal/sim"
	"c4/internal/workload"
)

// pipeSpec is a PP2xDP2 GA4 job on 4 nodes: the smallest strategy that
// exercises every planned-path mechanism (pipeline p2p, bucketing, the
// 1F1B bubble) on the real fabric.
func pipeSpec() workload.JobSpec {
	return workload.JobSpec{
		Name:                 "pipe",
		Model:                workload.GPT22B,
		Par:                  workload.Parallelism{TP: 8, PP: 2, DP: 2, GA: 4},
		Nodes:                []int{0, 1, 2, 3},
		ComputePerMicroBatch: 200 * sim.Millisecond,
		ComputeJitter:        0.02,
		SamplesPerIter:       32,
	}
}

func runPipe(t *testing.T, opts plan.Options, iters int, mutate func(*Job)) Report {
	t.Helper()
	r := newRig()
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: pipeSpec(), Rand: sim.NewRand(2),
		Plan: opts, QPsPerConn: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(j)
	}
	var rep Report
	j.Run(iters, func(rp Report) { rep = rp })
	r.eng.Run()
	if rep.Iters != iters {
		t.Fatalf("iters = %d, want %d", rep.Iters, iters)
	}
	return rep
}

func TestPlannedBreakdownAccounting(t *testing.T) {
	rep := runPipe(t, plan.Options{}, 4, nil)
	if rep.AvgCompute <= 0 || rep.AvgBubble <= 0 || rep.AvgExposed <= 0 {
		t.Fatalf("breakdown = compute %v, bubble %v, exposed %v; want all positive",
			rep.AvgCompute, rep.AvgBubble, rep.AvgExposed)
	}
	sum := rep.AvgCompute + rep.AvgBubble + rep.AvgExposed
	if diff := sum - rep.AvgIter; diff > sim.Millisecond || diff < -sim.Millisecond {
		t.Fatalf("breakdown sums to %v, avg iter %v", sum, rep.AvgIter)
	}
	// The bubble must cover at least (PP-1) = 1 nominal micro-batch slot.
	if rep.AvgBubble < 150*sim.Millisecond {
		t.Fatalf("bubble = %v, want >= one micro-batch slot", rep.AvgBubble)
	}
	if share := rep.ExposedShare(); share <= 0 || share >= 1 {
		t.Fatalf("exposed share = %v", share)
	}
}

func TestPlannedOverlapReducesExposedComm(t *testing.T) {
	bucket := workload.GPT22B.GradBytesPerRank(workload.Parallelism{TP: 8, PP: 2}) / 8
	off := runPipe(t, plan.Options{BucketBytes: bucket}, 4, nil)
	on := runPipe(t, plan.Options{BucketBytes: bucket, Overlap: true}, 4, nil)
	if on.AvgExposed >= off.AvgExposed {
		t.Fatalf("exposed(on) = %v, want < exposed(off) = %v", on.AvgExposed, off.AvgExposed)
	}
	if on.SamplesPerSec <= off.SamplesPerSec {
		t.Fatalf("samples/s on = %.1f, want > off = %.1f", on.SamplesPerSec, off.SamplesPerSec)
	}
}

func TestPlannedStragglerSlowsIterations(t *testing.T) {
	base := runPipe(t, plan.Options{}, 3, nil)
	slow := runPipe(t, plan.Options{}, 3, func(j *Job) {
		j.SetStraggler(1, 400*sim.Millisecond)
	})
	if slow.AvgIter < base.AvgIter+300*sim.Millisecond {
		t.Fatalf("straggler iter %v vs base %v: the pipeline should absorb the delay",
			slow.AvgIter, base.AvgIter)
	}
}

func TestPlannedCrashHangsPipeline(t *testing.T) {
	r := newRig()
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: pipeSpec(), Rand: sim.NewRand(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	j.Run(100, func(Report) { done = true })
	r.eng.After(time500ms, func() { j.SetCrashed(1, true) })
	r.eng.RunUntil(sim.Minute)
	if done {
		t.Fatal("pipeline job finished despite a crashed stage")
	}
	// Recovery through the steering path: replace the stage node.
	j.Stop()
	r.eng.RunFor(sim.Second)
	if err := j.ReplaceNode(1, 16); err != nil {
		t.Fatal(err)
	}
	recovered := false
	j.Run(2, func(Report) { recovered = true })
	r.eng.RunUntil(10 * sim.Minute)
	if !recovered {
		t.Fatal("pipeline job did not recover after node replacement")
	}
}

const time500ms = 500 * sim.Millisecond

func TestPlannedMatchesBubbleFormulaWithoutJitter(t *testing.T) {
	// Zero jitter, DP=1 (no gradient sync): iteration must land close to
	// the textbook (GA + PP - 1) slots plus activation-transfer time.
	r := newRig()
	spec := workload.JobSpec{
		Name:                 "pure-pipe",
		Model:                workload.GPT22B,
		Par:                  workload.Parallelism{TP: 8, PP: 4, GA: 8},
		Nodes:                []int{0, 1, 2, 3},
		ComputePerMicroBatch: 200 * sim.Millisecond,
		SamplesPerIter:       32,
	}
	j, err := New(Config{
		Engine: r.eng, Net: r.net, Provider: r.provider(),
		Spec: spec, Rand: sim.NewRand(2), QPsPerConn: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	j.Run(2, func(rp Report) { rep = rp })
	r.eng.Run()
	ideal := sim.Time(8+4-1) * 200 * sim.Millisecond
	if rep.AvgIter < ideal {
		t.Fatalf("avg iter %v below the 1F1B lower bound %v", rep.AvgIter, ideal)
	}
	if rep.AvgIter > ideal+ideal/2 {
		t.Fatalf("avg iter %v far above the 1F1B bound %v: activations should mostly overlap",
			rep.AvgIter, ideal)
	}
	if rep.AvgExposed != 0 {
		t.Fatalf("exposed = %v, want 0 with DP=1", rep.AvgExposed)
	}
}
