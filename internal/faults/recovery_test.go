package faults

import (
	"slices"
	"testing"

	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/ckpt"
	"c4/internal/cluster"
	"c4/internal/job"
	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/steering"
	"c4/internal/topo"
	"c4/internal/workload"
)

// TestTrialRecoversThroughCkptAndSteering is the end-to-end recovery
// pipeline over a campaign-style trial: an injected straggler is detected
// by C4D, the steering service isolates the node and swaps in a spare,
// and the restart resumes from the checkpoint manager's newest surviving
// snapshot with bounded lost work — the paper's full detect -> diagnose ->
// isolate -> restore loop on one engine.
func TestTrialRecoversThroughCkptAndSteering(t *testing.T) {
	spec := topo.MultiJobTestbed(8)
	spec.Nodes = 12 // 8 primaries + 4 spares
	eng := sim.NewEngine()
	tp := topo.MustNew(spec)
	net := netsim.New(eng, tp, netsim.DefaultConfig())

	master := c4d.NewMaster(eng, c4d.Config{})
	jobNodes := []int{0, 1, 2, 3}
	j, err := job.New(job.Config{
		Engine: eng, Net: net,
		// The dynamic master also re-weights the job's QPs.
		Provider:   c4p.NewMaster(tp, c4p.Dynamic, sim.NewRand(1)),
		Sink:       master,
		Rand:       sim.NewRand(2),
		QPsPerConn: 4,
		Spec: workload.JobSpec{
			Name:                 "recovery-e2e",
			Model:                workload.GPT22B,
			Par:                  workload.Parallelism{TP: 8, DP: 4, GA: 1},
			Nodes:                jobNodes,
			ComputePerMicroBatch: 550 * sim.Millisecond,
			ComputeJitter:        0.02,
			SamplesPerIter:       64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoints every 5 iterations, replicated on the victim and a ring
	// peer so the snapshot survives the victim's isolation.
	const victim = 2
	mgr := ckpt.NewManager(eng, ckpt.Config{
		Interval: 5, SaveStall: 0, PersistEvery: 0, Replicas: 2,
	})
	itersDone := 0
	j.OnIteration(func(i int, _ sim.Time) {
		itersDone = i + 1
		mgr.OnIteration(itersDone, []int{victim, 3})
	})

	var restoredIter, lostAtRestart, itersAtRestart int
	cl := cluster.NewCluster(8, spec.GPUsPerNode, 4)
	svc := steering.NewService(steering.Config{
		Engine: eng, Cluster: cl,
		IsolationDelay: 10 * sim.Second,
		RestartDelay:   30 * sim.Second,
		Job:            j,
		Restart: func(node, repl int, err error) {
			snap, ok := mgr.Restore(node)
			if !ok {
				t.Errorf("no snapshot survived losing node %d", node)
				return
			}
			restoredIter = snap.Iteration
			lostAtRestart = mgr.LostIterations(itersDone, node)
			itersAtRestart = itersDone
			if err != nil {
				t.Errorf("replace %d -> %d: %v", node, repl, err)
				return
			}
			j.Run(1<<30, nil)
		},
	})
	master.Subscribe(func(ev c4d.Event) {
		if ev.Scope != c4d.ScopeConnection && slices.Contains(j.Nodes(), ev.Node) {
			svc.Handle(ev)
		}
	})

	inj := NewInjector(eng, net, tp)
	inj.Job = j
	if err := inj.Arm(Spec{
		Kind: Straggler, Node: victim, Severity: 2,
		Start: 20 * sim.Second, Duration: 3 * sim.Minute,
	}); err != nil {
		t.Fatal(err)
	}

	j.Run(1<<30, nil)
	eng.RunUntil(4 * sim.Minute)
	master.Stop()

	// C4D must have blamed the victim.
	blamed := false
	for _, ev := range master.Events() {
		if ev.Syndrome == c4d.NonCommSlow && ev.Node == victim {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("straggler never diagnosed; events: %v", master.Events())
	}
	// Steering must have swapped the victim for a spare.
	acts := svc.Actions()
	if len(acts) == 0 {
		t.Fatal("steering took no action")
	}
	swapped := false
	for _, a := range acts {
		if a.Node == victim && a.Replacement >= 8 {
			swapped = true
		}
	}
	if !swapped {
		t.Fatalf("actions %v never replaced victim %d with a spare (>= 8)", acts, victim)
	}
	if slices.Contains(j.Nodes(), victim) {
		t.Fatalf("victim still in the job: %v", j.Nodes())
	}
	// The restart restored a real snapshot with bounded lost work.
	if restoredIter == 0 {
		t.Fatal("restart never restored a snapshot")
	}
	if lostAtRestart >= mgr.Config().Interval {
		t.Fatalf("lost %d iterations, checkpoint interval %d should bound it",
			lostAtRestart, mgr.Config().Interval)
	}
	// And the job made real progress after the restart.
	if itersDone <= itersAtRestart {
		t.Fatalf("no progress after restart: %d then, %d at horizon", itersAtRestart, itersDone)
	}
}
