package steering

import (
	"errors"
	"math"
	"testing"

	"c4/internal/c4d"
	"c4/internal/cluster"
	"c4/internal/sim"
)

// averageBreakdown runs the availability model across seeds to shrink
// Monte-Carlo noise to table precision.
func averageBreakdown(t *testing.T, regime Regime, seeds int) Breakdown {
	t.Helper()
	agg := Breakdown{Regime: regime.Name, Diagnosis: map[cluster.FaultKind]float64{}}
	for s := 0; s < seeds; s++ {
		b := SimulateAvailability(AvailabilityConfig{
			Rand:   sim.NewRand(int64(1000 + s)),
			Nodes:  300, // 2400 GPUs, the Table III job
			Regime: regime,
		})
		agg.Faults += b.Faults
		agg.PostCkpt += b.PostCkpt
		agg.Detection += b.Detection
		agg.Reinit += b.Reinit
		for k, v := range b.Diagnosis {
			agg.Diagnosis[k] += v
		}
	}
	n := float64(seeds)
	agg.PostCkpt /= n
	agg.Detection /= n
	agg.Reinit /= n
	for k := range agg.Diagnosis {
		agg.Diagnosis[k] /= n
	}
	return agg
}

func TestManualRegimeMatchesTableIIIJune(t *testing.T) {
	b := averageBreakdown(t, ManualRegime(), 20)
	total := b.Total()
	// Paper: 31.19% total error-induced downtime in June 2023.
	if total < 0.24 || total > 0.40 {
		t.Fatalf("June total downtime = %.2f%%, want ≈31%%", total*100)
	}
	// Diagnosis & isolation dominates (paper: 19.65% of 31.19%).
	if b.DiagnosisTotal() < b.PostCkpt || b.DiagnosisTotal() < b.Detection {
		t.Fatalf("diagnosis %.2f%% should dominate (post-ckpt %.2f%%, detection %.2f%%)",
			b.DiagnosisTotal()*100, b.PostCkpt*100, b.Detection*100)
	}
	// Post-checkpoint is the second contributor.
	if b.PostCkpt < b.Detection {
		t.Fatalf("post-ckpt %.2f%% should exceed detection %.2f%%", b.PostCkpt*100, b.Detection*100)
	}
	// GPU-related causes are about 2/3 of diagnosis time (paper: 12.53%
	// of 19.65%).
	gpu := b.Diagnosis[cluster.FaultECCNVLink] + b.Diagnosis[cluster.FaultCUDAError]
	if frac := gpu / b.DiagnosisTotal(); frac < 0.45 || frac > 0.85 {
		t.Fatalf("GPU share of diagnosis = %.2f, want ≈2/3", frac)
	}
}

func TestC4DRegimeMatchesTableIIIDecember(t *testing.T) {
	b := averageBreakdown(t, C4DRegime(), 20)
	total := b.Total()
	// Paper: 1.16% total in December 2023.
	if total < 0.005 || total > 0.025 {
		t.Fatalf("December total downtime = %.2f%%, want ≈1.2%%", total*100)
	}
}

func TestC4DReductionFactor(t *testing.T) {
	jun := averageBreakdown(t, ManualRegime(), 20).Total()
	dec := averageBreakdown(t, C4DRegime(), 20).Total()
	factor := jun / dec
	// Paper: ~30x reduction (31.19% -> 1.16% ≈ 27x).
	if factor < 15 || factor > 45 {
		t.Fatalf("downtime reduction = %.1fx, want ≈30x", factor)
	}
}

func TestCrashTableMatchesTableI(t *testing.T) {
	// Average over several months to shrink sampling noise.
	var rows map[cluster.FaultKind]float64
	total := 0
	rows = map[cluster.FaultKind]float64{}
	tab := SimulateCrashCauses(sim.NewRand(4), 512, 12*30*sim.Day)
	total = tab.Total
	for _, r := range tab.Rows {
		rows[r.RootCause] = r.Proportion
	}
	if total < 300 {
		t.Fatalf("only %d crashes sampled", total)
	}
	want := map[cluster.FaultKind]float64{
		cluster.FaultCUDAError:    0.125,
		cluster.FaultECCNVLink:    0.275,
		cluster.FaultNCCLTimeout:  0.20,
		cluster.FaultACKTimeout:   0.275,
		cluster.FaultNetworkOther: 0.125,
	}
	for k, w := range want {
		if math.Abs(rows[k]-w) > 0.05 {
			t.Fatalf("%v proportion = %.3f, want %.3f", k, rows[k], w)
		}
	}
	if lf := tab.LocalFraction(); math.Abs(lf-0.825) > 0.05 {
		t.Fatalf("local fraction = %.3f, want 0.825", lf)
	}
	// Most causes surface as the same unhelpful "NCCL Error".
	nccl := 0.0
	for _, r := range tab.Rows {
		if r.UserView == "NCCL Error" {
			nccl += r.Proportion
		}
	}
	if nccl < 0.8 {
		t.Fatalf("NCCL-error share = %.2f, want ≥0.8", nccl)
	}
}

// fakeJob records what the service does to the steered job.
type fakeJob struct {
	stops    int
	replaced [][2]int
	err      error // returned by every ReplaceNode
}

func (f *fakeJob) Stop() { f.stops++ }

func (f *fakeJob) ReplaceNode(old, repl int) error {
	f.replaced = append(f.replaced, [2]int{old, repl})
	return f.err
}

func TestServicePipeline(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.NewCluster(4, 8, 2)
	j := &fakeJob{}
	restartedOld, restartedNew := -1, -1
	var restartErr error
	var stopsAtRestart int
	svc := NewService(Config{
		Engine:         eng,
		Cluster:        cl,
		IsolationDelay: 30 * sim.Second,
		RestartDelay:   2 * sim.Minute,
		Job:            j,
		Restart: func(old, repl int, err error) {
			restartedOld, restartedNew, restartErr = old, repl, err
			stopsAtRestart = j.stops
		},
	})
	ev := c4d.Event{Time: 0, Syndrome: c4d.NonCommHang, Scope: c4d.ScopeNode, Node: 2}
	started := false
	eng.After(0, func() { started = svc.Handle(ev) })
	eng.Run()
	if !started {
		t.Fatal("Handle did not report the recovery it started")
	}
	if j.stops != 1 || stopsAtRestart != 1 {
		t.Fatalf("job stopped %d times (%d by the restart), want once before it", j.stops, stopsAtRestart)
	}
	if len(j.replaced) != 1 || j.replaced[0] != [2]int{2, 4} {
		t.Fatalf("swaps = %v, want [[2 4]]", j.replaced)
	}
	if restartedOld != 2 || restartedNew != 4 || restartErr != nil {
		t.Fatalf("restart = (%d,%d,%v), want (2,4,nil)", restartedOld, restartedNew, restartErr)
	}
	if !cl.Machines[2].Isolated {
		t.Fatal("cluster state not updated")
	}
	acts := svc.Actions()
	if len(acts) != 1 {
		t.Fatalf("actions = %d", len(acts))
	}
	if acts[0].RestartAt != 30*sim.Second+2*sim.Minute {
		t.Fatalf("restart at %v", acts[0].RestartAt)
	}
	if acts[0].String() == "" {
		t.Fatal("empty action string")
	}
}

func TestServiceCoalescesConcurrentFindings(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.NewCluster(4, 8, 2)
	j := &fakeJob{}
	svc := NewService(Config{Engine: eng, Cluster: cl, Job: j})
	var first, second bool
	eng.After(0, func() {
		first = svc.Handle(c4d.Event{Syndrome: c4d.CommHang, Node: 1})
		second = svc.Handle(c4d.Event{Syndrome: c4d.CommHang, Node: 1}) // duplicate burst
	})
	eng.Run()
	if !first || second {
		t.Fatalf("Handle = %v then %v, want true then false (coalesced)", first, second)
	}
	if got := len(svc.Actions()); got != 1 {
		t.Fatalf("actions = %d, want 1 (coalesced)", got)
	}
	if j.stops != 1 || len(j.replaced) != 1 {
		t.Fatalf("job stopped %d times and swapped %v, want once each", j.stops, j.replaced)
	}
}

func TestServiceEmptySparePool(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.NewCluster(2, 8, 0)
	j := &fakeJob{}
	var repl int
	svc := NewService(Config{
		Engine: eng, Cluster: cl, Job: j,
		Restart: func(_, r int, _ error) { repl = r },
	})
	eng.After(0, func() { svc.Handle(c4d.Event{Node: 1}) })
	eng.Run()
	if repl != 1 || len(j.replaced) != 1 || j.replaced[0] != [2]int{1, 1} {
		t.Fatalf("replacement = %d, swaps %v, want in-place restart (1)", repl, j.replaced)
	}
}

// TestServicePassesSwapErrorToRestart: a failed swap still reaches the
// restart policy, which decides what to do about it, and the service is
// free for the next finding.
func TestServicePassesSwapErrorToRestart(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.NewCluster(4, 8, 2)
	swapErr := errors.New("node 3 not in job")
	j := &fakeJob{err: swapErr}
	var got error
	restarts := 0
	svc := NewService(Config{
		Engine: eng, Cluster: cl, Job: j,
		Restart: func(_, _ int, err error) { got = err; restarts++ },
	})
	eng.After(0, func() { svc.Handle(c4d.Event{Syndrome: c4d.CommHang, Node: 3}) })
	eng.Run()
	if restarts != 1 || !errors.Is(got, swapErr) {
		t.Fatalf("restart saw %v after %d restarts, want the swap error once", got, restarts)
	}
	started := false
	eng.After(0, func() { started = svc.Handle(c4d.Event{Syndrome: c4d.CommHang, Node: 0}) })
	eng.Run()
	if !started || restarts != 2 {
		t.Fatalf("second finding started=%v restarts=%d, want a fresh recovery", started, restarts)
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{
		PostCkpt: 0.01, Detection: 0.02, Reinit: 0.005,
		Diagnosis: map[cluster.FaultKind]float64{
			cluster.FaultCUDAError: 0.03,
			cluster.FaultECCNVLink: 0.04,
		},
	}
	if math.Abs(b.DiagnosisTotal()-0.07) > 1e-12 {
		t.Fatalf("diag total = %v", b.DiagnosisTotal())
	}
	if math.Abs(b.Total()-0.105) > 1e-12 {
		t.Fatalf("total = %v", b.Total())
	}
	causes := b.Causes()
	if len(causes) != 2 || causes[0] != cluster.FaultCUDAError {
		t.Fatalf("causes = %v", causes)
	}
}
