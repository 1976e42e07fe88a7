// Package job runs simulated distributed-training jobs over the ACCL
// collective layer. Every job's iteration is compiled by internal/plan
// into a 1F1B micro-batch schedule and run by the plan executor —
// per-stage forward/backward slots, stage-to-stage activation/gradient
// SendRecv traffic, and bucketed, optionally overlapped DP gradient
// synchronization — with per-node jitter, injectable stragglers, and
// node replacement. A pure data-parallel GA=1 job is the one-stage case:
// a lump of jittered compute, then one gradient allreduce per iteration.
// This is the workload generator behind Figs 3 and 14, the plan/*
// strategy sweeps, and the live C4D→steering pipeline.
package job

import (
	"context"
	"fmt"

	"c4/internal/accl"
	"c4/internal/netsim"
	"c4/internal/plan"
	"c4/internal/sim"
	"c4/internal/trace"
	"c4/internal/workload"
)

// Config wires a job to the simulated cluster. A job's communicators send
// on rail 0, accl's default; its provider decides whether they re-weight
// QPs.
type Config struct {
	Engine   *sim.Engine
	Net      *netsim.Network
	Provider accl.PathProvider
	Sink     accl.StatsSink // may be nil
	Rand     *sim.Rand
	Spec     workload.JobSpec
	// Context cancels the job cooperatively: once it is cancelled, the
	// in-flight iteration stops scheduling work and never completes, and
	// the engine queue drains. nil means never cancelled.
	Context context.Context
	// Plan tunes the compiled iteration schedule: gradient bucket size
	// and comm/compute overlap. The zero value synchronizes each stage's
	// whole gradient once its backward drain ends.
	Plan plan.Options
	// QPsPerConn sets the QP count per connection (default 2, one per
	// physical port; production CCLs open several per port).
	QPsPerConn int
}

// Report summarizes a completed run.
type Report struct {
	Iters         int
	TotalTime     sim.Time
	AvgIter       sim.Time
	SamplesPerSec float64
	IterTimes     []sim.Time

	// The average iteration's breakdown, AvgIter ≈ AvgCompute + AvgBubble
	// + AvgExposed: busiest-node compute, pipeline idle before compute
	// finished (warmup/drain plus activation-transfer stalls), and the
	// tail only gradient synchronization occupies — the exposed
	// communication whose share decides how much path steering can help.
	AvgCompute sim.Time
	AvgBubble  sim.Time
	AvgExposed sim.Time
}

// ExposedShare is the exposed-communication fraction of the average
// iteration, the paper's Fig 14 precondition knob.
func (r Report) ExposedShare() float64 {
	if r.AvgIter <= 0 {
		return 0
	}
	return float64(r.AvgExposed) / float64(r.AvgIter)
}

// Job is a running training job.
type Job struct {
	cfg    Config
	plan   *plan.Plan
	nodes  []int
	groups [][]int
	comms  []*accl.Communicator
	// pairComms[d*(PP-1)+s] carries the pipeline point-to-point traffic
	// between stages s and s+1 of replica d (empty when PP == 1).
	pairComms []*accl.Communicator
	// commEpoch counts openComms calls; an abandoned iteration (the job
	// was stopped and its comms rebuilt by ReplaceNode mid-schedule) still
	// has slot-end events and collective callbacks queued, and the epoch
	// check stops them from launching transfers on the rebuilt
	// communicators or completing an iteration of the next run.
	commEpoch int
	// fabric and iterDone bind the executor to the current epoch's
	// communicators; openComms rebuilds them.
	fabric   plan.Fabric
	iterDone func(plan.IterStats)

	rand   *sim.Rand
	timing plan.IterTiming // per-node perturbations, redrawn every iteration

	stragglers map[int]sim.Time
	running    bool
	itersLeft  int
	runStart   sim.Time
	iterTimes  []sim.Time
	busySum    sim.Time
	bubbleSum  sim.Time
	exposedSum sim.Time
	onDone     func(Report)
	onIter     func(int, sim.Time)
	iterSpan   *trace.Span // current iteration's trace span; nil when off
}

// tracer returns the simulation's tracer via the network, the single
// wiring point shared with accl and netsim.
func (j *Job) tracer() *trace.Tracer { return j.cfg.Net.Trace }

// New validates the spec, compiles its iteration plan, and opens the
// job's communicators: one per pipeline stage's DP group, plus one per
// adjacent-stage pair when the plan carries pipeline traffic.
func New(cfg Config) (*Job, error) {
	if cfg.Engine == nil || cfg.Net == nil || cfg.Provider == nil {
		return nil, fmt.Errorf("job: Engine, Net and Provider are required")
	}
	if cfg.Rand == nil {
		cfg.Rand = sim.NewRand(17)
	}
	groups, err := cfg.Spec.DPGroups()
	if err != nil {
		return nil, err
	}
	p, err := plan.Compile(cfg.Spec, cfg.Plan)
	if err != nil {
		return nil, err
	}
	j := &Job{
		cfg:        cfg,
		plan:       p,
		nodes:      append([]int(nil), cfg.Spec.Nodes...),
		groups:     groups,
		rand:       cfg.Rand.Fork(),
		stragglers: make(map[int]sim.Time),
	}
	j.timing.Scale = make([][]float64, p.DP)
	j.timing.Extra = make([][]sim.Time, p.DP)
	for d := 0; d < p.DP; d++ {
		j.timing.Scale[d] = make([]float64, p.PP)
		j.timing.Extra[d] = make([]sim.Time, p.PP)
	}
	if err := j.openComms(); err != nil {
		return nil, err
	}
	return j, nil
}

// Plan exposes the compiled iteration schedule.
func (j *Job) Plan() *plan.Plan { return j.plan }

func (j *Job) newComm(nodes []int) (*accl.Communicator, error) {
	return accl.NewCommunicator(accl.Config{
		Engine: j.cfg.Engine, Net: j.cfg.Net, Provider: j.cfg.Provider,
		Sink: j.cfg.Sink, Rand: j.rand, QPsPerConn: j.cfg.QPsPerConn,
	}, nodes)
}

func (j *Job) openComms() error {
	for _, c := range j.allComms() {
		c.Close()
	}
	j.comms = j.comms[:0]
	j.pairComms = j.pairComms[:0]
	j.commEpoch++
	epoch := j.commEpoch
	j.fabric = plan.Fabric{
		Engine: j.cfg.Engine,
		P2P: func(replica, from, to int, bytes float64, ready sim.Time, done func(sim.Time)) {
			if j.commEpoch == epoch {
				j.p2p(replica, from, to, bytes, ready, done)
			}
		},
		DPSync: func(stage int, bytes float64, arrivals []sim.Time, done func(sim.Time)) {
			if j.commEpoch == epoch {
				j.dpSync(stage, bytes, arrivals, done)
			}
		},
	}
	j.iterDone = func(st plan.IterStats) {
		if j.commEpoch == epoch {
			j.completeIter(st)
		}
	}
	for _, g := range j.groups {
		if len(g) < 2 {
			j.comms = append(j.comms, nil) // DP=1: nothing to synchronize
			continue
		}
		c, err := j.newComm(g)
		if err != nil {
			return err
		}
		j.comms = append(j.comms, c)
	}
	// Pipeline cuts: a dedicated pair communicator per adjacent-stage
	// boundary of every replica, the NCCL p2p idiom.
	pp := j.plan.PP
	for d := 0; d < j.plan.DP; d++ {
		for s := 0; s < pp-1; s++ {
			c, err := j.newComm([]int{j.nodes[d*pp+s], j.nodes[d*pp+s+1]})
			if err != nil {
				return err
			}
			j.pairComms = append(j.pairComms, c)
		}
	}
	return nil
}

// allComms enumerates every open communicator (DP groups, then pairs).
func (j *Job) allComms() []*accl.Communicator {
	out := make([]*accl.Communicator, 0, len(j.comms)+len(j.pairComms))
	for _, c := range j.comms {
		if c != nil {
			out = append(out, c)
		}
	}
	return append(out, j.pairComms...)
}

// Nodes returns the job's current node assignment.
func (j *Job) Nodes() []int { return append([]int(nil), j.nodes...) }

// SetStraggler adds a fixed per-iteration compute delay to a node
// (non-communication-slow injection).
func (j *Job) SetStraggler(node int, extra sim.Time) { j.stragglers[node] = extra }

// SetCrashed marks a node crashed in every communicator: it stops arriving
// at collectives and the job hangs, exactly like a dead worker process.
func (j *Job) SetCrashed(node int, crashed bool) {
	for _, c := range j.allComms() {
		c.SetCrashed(node, crashed)
	}
}

// OnIteration registers a per-iteration callback (iter index, duration).
func (j *Job) OnIteration(f func(int, sim.Time)) { j.onIter = f }

// IterTimes returns completed iteration durations.
func (j *Job) IterTimes() []sim.Time { return append([]sim.Time(nil), j.iterTimes...) }

// Run executes `iters` iterations, then reports. A job hangs forever if a
// member crashes mid-run (BSP semantics); Stop or ReplaceNode unblocks it.
func (j *Job) Run(iters int, onDone func(Report)) {
	if j.running {
		panic("job: Run while already running")
	}
	j.running = true
	j.itersLeft = iters
	j.onDone = onDone
	j.runStart = j.cfg.Engine.Now()
	j.iterate()
}

// Stop halts the job once the in-flight iteration completes.
func (j *Job) Stop() { j.running = false }

// Running reports whether the job loop is active.
func (j *Job) Running() bool { return j.running }

// iterate runs one optimizer step: it draws every node's compute
// perturbation, then executes the compiled schedule, whose transfers ride
// the pair communicators (pipeline p2p) and the DP group communicators
// (bucketed gradient sync).
func (j *Job) iterate() {
	if !j.running || j.itersLeft <= 0 {
		j.finish()
		return
	}
	j.iterSpan = nil
	if tr := j.tracer(); tr.Enabled() {
		j.iterSpan = tr.Start(nil, "iter", fmt.Sprintf("iter-%d", len(j.iterTimes)))
	}
	p, tm := j.plan, j.timing
	for d := 0; d < p.DP; d++ {
		for s := 0; s < p.PP; s++ {
			tm.Scale[d][s] = max(1+j.cfg.Spec.ComputeJitter*j.rand.NormFloat64(), 0)
			tm.Extra[d][s] = j.stragglers[j.nodes[d*p.PP+s]]
		}
	}
	fab := j.fabric
	fab.Trace, fab.Span = j.tracer(), j.iterSpan
	p.ExecIter(j.cfg.Context, fab, tm, j.iterDone)
}

// completeIter records a finished iteration's duration and breakdown,
// then starts the next one.
func (j *Job) completeIter(st plan.IterStats) {
	dur := st.IterTime()
	j.iterSpan.FinishAt(st.End)
	j.iterTimes = append(j.iterTimes, dur)
	j.busySum += st.MaxBusy
	j.bubbleSum += st.Bubble
	j.exposedSum += st.Exposed
	j.itersLeft--
	if j.onIter != nil {
		j.onIter(len(j.iterTimes)-1, dur)
	}
	j.iterate()
}

// p2p ships a pipeline tensor between adjacent stages of one replica.
func (j *Job) p2p(replica, from, to int, bytes float64, ready sim.Time, done func(sim.Time)) {
	cut := from
	src, dst := 0, 1
	if to < from {
		cut = to
		src, dst = 1, 0
	}
	c := j.pairComms[replica*(j.plan.PP-1)+cut]
	c.SendRecv(src, dst, bytes, ready, func(r accl.Result) { done(r.End) })
}

// dpSync synchronizes one gradient bucket of a stage across DP replicas.
func (j *Job) dpSync(stage int, bytes float64, arrivals []sim.Time, done func(sim.Time)) {
	comm := j.comms[stage]
	if comm == nil {
		// DP=1: nothing to synchronize; the bucket is "done" when ready.
		at := j.cfg.Engine.Now()
		for _, a := range arrivals {
			if a > at {
				at = a
			}
		}
		j.cfg.Engine.Schedule(at, func() { done(at) })
		return
	}
	if j.cfg.Spec.Par.ZeRO {
		// The allgather launches from a completion callback, after the
		// executor's dpsync scope has unwound; re-establish it explicitly.
		parent := j.tracer().Current()
		comm.ReduceScatter(bytes, arrivals, func(accl.Result) {
			restore := j.tracer().Scope(parent)
			comm.AllGather(bytes, nil, func(r accl.Result) { done(r.End) })
			restore()
		})
		return
	}
	comm.AllReduce(bytes, arrivals, func(r accl.Result) { done(r.End) })
}

func (j *Job) finish() {
	j.running = false
	if j.onDone == nil {
		return
	}
	cb := j.onDone
	j.onDone = nil
	cb(j.Report())
}

// Report summarizes every iteration completed so far, across restarts;
// TotalTime runs from the latest Run call.
func (j *Job) Report() Report {
	rep := Report{
		Iters:     len(j.iterTimes),
		TotalTime: j.cfg.Engine.Now() - j.runStart,
		IterTimes: append([]sim.Time(nil), j.iterTimes...),
	}
	if rep.Iters > 0 {
		var sum sim.Time
		for _, t := range j.iterTimes {
			sum += t
		}
		n := sim.Time(rep.Iters)
		rep.AvgIter = sum / n
		rep.AvgCompute = j.busySum / n
		rep.AvgBubble = j.bubbleSum / n
		rep.AvgExposed = j.exposedSum / n
		if rep.AvgIter > 0 {
			rep.SamplesPerSec = j.cfg.Spec.SamplesPerIter / rep.AvgIter.Seconds()
		}
	}
	return rep
}

// ReplaceNode swaps a (failed, isolated) node for a replacement and
// reopens the affected communicators — the steering service's restart
// path. The job must be stopped.
func (j *Job) ReplaceNode(old, repl int) error {
	if j.running {
		return fmt.Errorf("job: replace node while running")
	}
	found := false
	for i, n := range j.nodes {
		if n == old {
			j.nodes[i] = repl
			found = true
		}
	}
	if !found {
		return fmt.Errorf("job: node %d not in job", old)
	}
	for gi, g := range j.groups {
		for i, n := range g {
			if n == old {
				j.groups[gi][i] = repl
			}
		}
	}
	delete(j.stragglers, old)
	return j.openComms()
}

// Close releases all communicators.
func (j *Job) Close() {
	for _, c := range j.allComms() {
		c.Close()
	}
}
