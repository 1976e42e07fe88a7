package harness

import (
	"fmt"
	"strings"

	"c4/internal/c4d"
	"c4/internal/cluster"
	"c4/internal/job"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/steering"
	"c4/internal/topo"
	"c4/internal/workload"
)

// PipelineResult exercises the full Fig 4 loop live: a training job runs
// under a C4D fleet; a fault is injected; C4D localizes it; the steering
// service isolates the node, draws a spare, and restarts the job, which
// then completes. This is the system-level integration the paper deploys,
// measured end to end in virtual time.
type PipelineResult struct {
	Fault       cluster.Fault
	InjectedAt  sim.Time
	DetectedAt  sim.Time
	RestartedAt sim.Time
	// Downtime is injection -> job running again.
	Downtime sim.Time
	// Detection is injection -> C4D event (the paper's "tens of seconds").
	Detection   sim.Time
	BlamedNode  int
	Replacement int
	Finished    bool
	Events      []c4d.Event
}

// RunPipeline injects one crash into a 16-node job and drives the live
// C4D -> steering -> restart loop to completion.
func RunPipeline(seed int64) PipelineResult { return runPipeline(scenario.NewCtx(seed)) }

func runPipeline(ctx *scenario.Ctx) PipelineResult {
	seed := ctx.Seed
	spec := topo.MultiJobTestbed(8)
	spec.Nodes = 24 // 16 primaries + 8 backups, the paper's spare ratio
	e := newEnv(ctx, spec)
	cl := cluster.NewCluster(16, 8, 8)

	master := c4d.NewMaster(c4d.Config{})
	fleet := c4d.NewFleet(e.Eng, master)

	jobSpec := workload.JobSpec{
		Name:                 "pipeline-GPT22B",
		Model:                workload.GPT22B,
		Par:                  workload.Parallelism{TP: 8, DP: 16, GA: 1},
		Nodes:                InterleavedNodes(16),
		ComputePerMicroBatch: 550 * sim.Millisecond,
		ComputeJitter:        0.02,
		SamplesPerIter:       64,
	}
	j, err := job.New(job.Config{
		Engine: e.Eng, Net: e.Net,
		Provider: e.NewProvider(C4PStatic, seed),
		Sink:     fleet,
		Rails:    []int{0},
		Spec:     jobSpec,
		Rand:     sim.NewRand(seed),
	})
	if err != nil {
		panic(err)
	}

	res := PipelineResult{BlamedNode: -1, Replacement: -1}
	victim := 6

	svc := steering.NewService(steering.Config{
		Engine:         e.Eng,
		Cluster:        cl,
		IsolationDelay: 30 * sim.Second,
		RestartDelay:   3 * sim.Minute,
		Job:            j,
		Restart: func(node, repl int, err error) {
			if err != nil {
				panic(err)
			}
			res.RestartedAt = e.Eng.Now()
			res.Replacement = repl
			j.Run(5, func(job.Report) { res.Finished = true })
		},
	})
	master.Subscribe(func(ev c4d.Event) {
		res.Events = append(res.Events, ev)
		if res.DetectedAt == 0 {
			res.DetectedAt = ev.Time
			res.BlamedNode = ev.Node
		}
		svc.Handle(ev)
	})

	j.Run(1000, nil)
	res.InjectedAt = 20 * sim.Second
	e.Eng.Schedule(res.InjectedAt, func() {
		res.Fault = cluster.Fault{Kind: cluster.FaultCUDAError, Node: victim, Time: e.Eng.Now(), Local: true}
		j.SetCrashed(victim, true)
	})
	e.Eng.RunUntil(30 * sim.Minute)
	fleet.Stop()

	if res.DetectedAt > 0 {
		res.Detection = res.DetectedAt - res.InjectedAt
	}
	if res.RestartedAt > 0 {
		res.Downtime = res.RestartedAt - res.InjectedAt
	}
	return res
}

// String narrates the recovery.
func (r PipelineResult) String() string {
	var sb strings.Builder
	sb.WriteString("Live C4D -> steering -> restart pipeline\n")
	fmt.Fprintf(&sb, "fault injected:  %v (%v on node %d)\n", r.InjectedAt, r.Fault.Kind, r.Fault.Node)
	fmt.Fprintf(&sb, "C4D detection:   +%v (blamed node %d)\n", r.Detection, r.BlamedNode)
	fmt.Fprintf(&sb, "job restarted:   +%v (replacement node %d)\n", r.Downtime, r.Replacement)
	fmt.Fprintf(&sb, "job completed:   %v\n", r.Finished)
	return sb.String()
}

// CheckShape validates the deployment claims: detection within tens of
// seconds, the right node blamed, recovery within minutes (versus the
// hours-to-days of the manual baseline).
func (r PipelineResult) CheckShape() error {
	if r.BlamedNode != r.Fault.Node {
		return fmt.Errorf("pipeline: blamed node %d, fault was on %d", r.BlamedNode, r.Fault.Node)
	}
	if r.Detection <= 0 || r.Detection > 2*sim.Minute {
		return fmt.Errorf("pipeline: detection took %v, want tens of seconds", r.Detection)
	}
	if r.Downtime <= 0 || r.Downtime > 10*sim.Minute {
		return fmt.Errorf("pipeline: downtime %v, want minutes", r.Downtime)
	}
	if !r.Finished {
		return fmt.Errorf("pipeline: job never completed after recovery")
	}
	return nil
}
