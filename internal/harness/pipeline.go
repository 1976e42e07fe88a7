package harness

import (
	"fmt"
	"strings"

	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/cluster"
	"c4/internal/faults"
	"c4/internal/job"
	"c4/internal/scenario"
	"c4/internal/sim"
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

// runPipeline injects one crash into a 16-node job and drives the live
// C4D -> steering -> restart loop to completion.
func runPipeline(ctx *scenario.Ctx) PipelineResult {
	fabric := topo.MultiJobTestbed(8)
	fabric.Nodes = 24 // 16 primaries + 8 backups, the paper's spare ratio
	const victim = 6
	res := PipelineResult{BlamedNode: -1, Replacement: -1, InjectedAt: 20 * sim.Second}
	res.Fault = cluster.Fault{Kind: cluster.FaultCUDAError, Node: victim, Time: res.InjectedAt, Local: true}
	var r *faults.Rig
	r, err := faults.NewRig(faults.RigConfig{
		Fabric:   fabric,
		Job:      workload.TenantSpec("pipeline-GPT22B", workload.GPT22B, InterleavedNodes(16), 550*sim.Millisecond),
		Provider: c4p.C4PStatic.On(ctx.Seed),
		Seed:     ctx.Seed,
		Faults:   []faults.Spec{{Kind: faults.Crash, Node: victim, Start: res.InjectedAt}},
		Steering: &faults.SteeringPolicy{
			Spares:         8,
			IsolationDelay: 30 * sim.Second,
			RestartDelay:   3 * sim.Minute,
			Restart: func(node, repl int, err error) {
				if err != nil {
					panic(err)
				}
				res.RestartedAt = r.Eng.Now()
				res.Replacement = repl
				r.Job.Run(5, func(job.Report) { res.Finished = true })
			},
		},
	})
	if err != nil {
		panic(err)
	}
	ctx.Track(r.Eng)
	r.Master.Subscribe(func(ev c4d.Event) {
		res.Events = append(res.Events, ev)
		if res.DetectedAt == 0 {
			res.DetectedAt = ev.Time
			res.BlamedNode = ev.Node
		}
		r.Steering.Handle(ev)
	})
	r.Job.Run(1000, nil)
	r.Run(30 * sim.Minute)

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
