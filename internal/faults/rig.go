package faults

import (
	"context"
	"fmt"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/cluster"
	"c4/internal/job"
	"c4/internal/netsim"
	"c4/internal/plan"
	"c4/internal/rca"
	"c4/internal/sim"
	"c4/internal/steering"
	"c4/internal/topo"
	"c4/internal/trace"
	"c4/internal/workload"
)

// RigConfig describes one monitored training job, the run every live C4
// simulation builds: sessions, campaign trials, the pipeline experiment
// and the online-vs-batch race. Optional parts left zero are not built.
type RigConfig struct {
	// Fabric is the topology the job and any spares live on.
	Fabric topo.Spec
	// Job is the training job, of any parallelism; Plan tunes its
	// compiled iteration schedule.
	Job  workload.JobSpec
	Plan plan.Options
	// QPs is the QP count per connection (0 keeps the job default).
	QPs int
	// Provider builds the path provider on the rig's topology (for a
	// policy, c4p.ProviderKind.On); it also decides whether ACCL re-weights
	// the job's QPs.
	Provider func(*topo.Topology) accl.PathProvider
	// Seed seeds the job's compute jitter.
	Seed int64
	// Context, when set, cancels the job and Run.
	Context context.Context
	// NoC4D runs the job without a C4D master.
	NoC4D bool
	// Stream, when set, builds a second record sink on the rig's engine
	// (the streaming telemetry pipeline), fed beside the C4D master.
	Stream func(*sim.Engine) accl.StatsSink
	// Trace, when set, is bound to the rig's engine.
	Trace *trace.Tracer
	// Faults are armed on the rig's injector, the only way a fault reaches
	// a run; OnTelemetry receives the monitor signal each emits at onset.
	Faults      []Spec
	OnTelemetry func(rca.Telemetry)
	// Steering, when set, builds the steering service. The caller picks
	// the C4D findings it hands to Rig.Steering.Handle.
	Steering *SteeringPolicy
}

// SteeringPolicy is a site's recovery policy: its spare pool (the
// fabric's last Spares nodes), its delays, and what a restart runs (see
// steering.Config).
type SteeringPolicy struct {
	Spares                       int
	IsolationDelay, RestartDelay sim.Time
	Restart                      func(node, replacement int, err error)
}

// Rig is the assembled run: start it with Job.Run, then drive it with
// Run. Master is nil under NoC4D, Steering without a policy.
type Rig struct {
	Eng      *sim.Engine
	Topo     *topo.Topology
	Net      *netsim.Network
	Job      *job.Job
	Master   *c4d.Master
	Steering *steering.Service
	Injector *Injector

	ctx context.Context
}

// NewRig builds the run and arms its faults.
func NewRig(cfg RigConfig) (*Rig, error) {
	t, err := topo.New(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	r := &Rig{Eng: eng, Topo: t, Net: netsim.New(eng, t), ctx: cfg.Context}
	if cfg.Trace != nil {
		cfg.Trace.Bind(eng)
		r.Net.Trace = cfg.Trace
	}
	var sink accl.StatsSink
	if !cfg.NoC4D {
		r.Master = c4d.NewMaster(eng, c4d.Config{Trace: cfg.Trace})
		sink = r.Master
	}
	if cfg.Stream != nil {
		sink = accl.Fanout(sink, cfg.Stream(eng))
	}
	r.Job, err = job.New(job.Config{
		Engine: eng, Net: r.Net, Provider: cfg.Provider(t), Sink: sink,
		Rand: sim.NewRand(cfg.Seed), Context: cfg.Context,
		Spec: cfg.Job, Plan: cfg.Plan, QPsPerConn: cfg.QPs,
	})
	if err != nil {
		return nil, err
	}
	r.Injector = NewInjector(eng, r.Net, t)
	r.Injector.Job, r.Injector.OnTelemetry = r.Job, cfg.OnTelemetry
	for _, s := range cfg.Faults {
		if err := r.Injector.Arm(s); err != nil {
			return nil, fmt.Errorf("faults: job %s: %w", cfg.Job.Name, err)
		}
	}
	if p := cfg.Steering; p != nil {
		r.Steering = steering.NewService(steering.Config{
			Engine:         eng,
			Cluster:        cluster.NewCluster(cfg.Fabric.Nodes-p.Spares, cfg.Fabric.GPUsPerNode, p.Spares),
			IsolationDelay: p.IsolationDelay,
			RestartDelay:   p.RestartDelay,
			Job:            r.Job,
			Trace:          cfg.Trace,
			Restart:        p.Restart,
		})
	}
	return r, nil
}

// Run drives the engine to the horizon, then stops the master's reporting
// tick. With a Context it checks cancellation between event instants,
// which fires the identical event sequence, and returns the context's
// error.
func (r *Rig) Run(horizon sim.Time) error {
	if r.Master != nil {
		defer r.Master.Stop()
	}
	if r.ctx == nil {
		r.Eng.RunUntil(horizon)
		return nil
	}
	for i := 0; ; i++ {
		if i&0xff == 0 {
			if err := r.ctx.Err(); err != nil {
				return err
			}
		}
		next := r.Eng.NextEventAt()
		if next > horizon {
			break
		}
		r.Eng.RunUntil(next)
	}
	r.Eng.RunUntil(horizon) // advance the clock to exactly the horizon
	return r.ctx.Err()
}
