// Package tenancy simulates a multi-tenant training cluster: N concurrent
// jobs arrive and depart under a replayable trace (hand-written JSON or a
// seeded Poisson process), are placed onto the shared fabric by a
// pluggable scheduling policy, and run their collective traffic through
// one shared netsim.Network — so cross-job link contention, the condition
// C4P's path steering exists to handle (HPCA'25 §II-D), is real rather
// than assumed.
//
// The engine reports per-job goodput, stretch (slowdown versus the job's
// compute-only iteration time) and cross-job fairness (Jain index), and
// backs the tenancy/* scenario family registered by internal/harness.
package tenancy

import (
	"fmt"
	"strings"

	"c4/internal/accl"
	"c4/internal/c4p"
	"c4/internal/cluster"
	"c4/internal/job"
	"c4/internal/metrics"
	"c4/internal/netsim"
	"c4/internal/sched"
	"c4/internal/sim"
	"c4/internal/topo"
)

// The shared cluster: two leaf groups of 8 nodes, every connection opening
// one QP per physical port.
const (
	fabricNodes = 16
	qpsPerConn  = 2
)

// Config describes one multi-tenant simulation.
type Config struct {
	// Spines per rail: 8 = the 1:1 fabric, 4 = 2:1 oversubscription.
	Spines int
	// Policy places arriving jobs (packed / spread / random).
	Policy sched.Policy
	// Arm is the path-control policy every tenant shares.
	Arm c4p.ProviderKind
	// Horizon ends the simulation; jobs still running are measured up to
	// it.
	Horizon sim.Time
	// Seed roots every RNG stream of the run.
	Seed int64
	// Trace is the arrival schedule to replay.
	Trace Trace
}

// JobStat is one tenant's outcome.
type JobStat struct {
	Name  string
	Nodes []int // placement, ring order; nil when never admitted

	Arrive sim.Time // trace arrival
	Start  sim.Time // admission (= Arrive unless queued)
	End    sim.Time // departure, completion, or the horizon

	Admitted bool
	Rejected bool // larger than the whole fabric: can never run

	Iters   int
	AvgIter sim.Time
	// Goodput is training progress in samples/second of occupancy.
	Goodput float64
	// Stretch is AvgIter over the job's compute-only iteration time:
	// 1.0 would be free communication, larger means fabric time (and
	// collisions) dominate.
	Stretch float64
}

// PerNodeGoodput normalizes goodput by job size, the unit Jain fairness
// is computed over (a 2x job legitimately gets 2x the samples/sec).
func (s JobStat) PerNodeGoodput() float64 {
	if len(s.Nodes) == 0 {
		return 0
	}
	return s.Goodput / float64(len(s.Nodes))
}

// RunResult aggregates one multi-tenant simulation.
type RunResult struct {
	Arm     c4p.ProviderKind
	Policy  sched.Policy
	Spines  int
	Horizon sim.Time
	Jobs    []JobStat

	Admitted      int
	Completed     int // departed (or finished) before the horizon
	NeverAdmitted int // queued until the end
	Rejected      int
	BeyondHorizon int // trace events arriving after the horizon: never simulated

	// AggGoodput sums samples/sec across jobs that made progress.
	AggGoodput float64
	// Jain is Jain's fairness index over per-node goodputs (1 = equal).
	Jain float64
	// MeanStretch averages stretch over jobs that made progress.
	MeanStretch float64

	// Fired is the engine's event count (scenario.EventCounter).
	Fired uint64
}

// Run replays the trace against a fresh fabric and returns the aggregate.
func Run(cfg Config) RunResult {
	if cfg.Spines <= 0 {
		cfg.Spines = 8
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Minute
	}

	eng := sim.NewEngine()
	spec := topo.MultiJobTestbed(cfg.Spines)
	spec.Nodes = fabricNodes
	fab := topo.MustNew(spec)
	net := netsim.New(eng, fab)

	st := &runState{
		cfg: cfg, eng: eng, net: net, prov: cfg.Arm.On(cfg.Seed)(fab),
		sch:   sched.New(fab),
		cl:    cluster.NewCluster(fabricNodes, spec.GPUsPerNode, 0),
		place: sim.NewRand(cfg.Seed + 1),
	}
	trace := cfg.Trace.normalized()
	st.stats = make([]JobStat, len(trace.Events))
	st.events = trace.Events
	st.jobs = make([]*job.Job, len(trace.Events))
	for i, ev := range trace.Events {
		i, ev := i, ev
		st.stats[i] = JobStat{Name: ev.Name, Arrive: sim.FromSeconds(ev.AtS)}
		eng.Schedule(sim.FromSeconds(ev.AtS), func() { st.arrive(i) })
	}
	eng.RunUntil(cfg.Horizon)

	res := RunResult{
		Arm: cfg.Arm, Policy: cfg.Policy, Spines: cfg.Spines,
		Horizon: cfg.Horizon, Fired: eng.Fired(),
	}
	for i := range st.stats {
		st.finalize(i, cfg.Horizon)
		s := st.stats[i]
		switch {
		case s.Rejected:
			res.Rejected++
		case !s.Admitted && s.Arrive > cfg.Horizon:
			// The arrival event never fired; the job didn't queue, it
			// simply lies beyond the simulated window.
			res.BeyondHorizon++
		case !s.Admitted:
			res.NeverAdmitted++
		default:
			res.Admitted++
			if s.End < cfg.Horizon {
				res.Completed++
			}
		}
		res.Jobs = append(res.Jobs, s)
	}
	var perNode []float64
	var stretchSum float64
	progressed := 0
	for _, s := range res.Jobs {
		if s.Iters == 0 {
			continue
		}
		progressed++
		res.AggGoodput += s.Goodput
		perNode = append(perNode, s.PerNodeGoodput())
		stretchSum += s.Stretch
	}
	if progressed > 0 {
		res.MeanStretch = stretchSum / float64(progressed)
	}
	res.Jain = metrics.Jain(perNode)
	return res
}

// runState is the engine's mutable bookkeeping during a replay.
type runState struct {
	cfg   Config
	eng   *sim.Engine
	net   *netsim.Network
	prov  accl.PathProvider
	sch   *sched.Scheduler
	cl    *cluster.Cluster
	place *sim.Rand

	events []TraceEvent
	stats  []JobStat
	jobs   []*job.Job
	queue  []int // arrived jobs waiting for capacity, FIFO
}

// arrive admits the job if it fits, otherwise queues it (strict FIFO, so
// a big job at the head is never starved by small late arrivals).
func (st *runState) arrive(i int) {
	if st.events[i].Nodes > fabricNodes {
		st.stats[i].Rejected = true
		return
	}
	st.queue = append(st.queue, i)
	st.drainQueue()
}

// drainQueue admits from the queue head while capacity allows.
func (st *runState) drainQueue() {
	for len(st.queue) > 0 {
		head := st.queue[0]
		if st.events[head].Nodes > st.sch.Free() {
			return
		}
		st.queue = st.queue[1:]
		st.admit(head)
	}
}

func (st *runState) admit(i int) {
	ev := st.events[i]
	nodes, err := st.sch.AllocatePolicy(ev.Nodes, st.cfg.Policy, st.place)
	if err != nil {
		panic(fmt.Sprintf("tenancy: admit %s: %v", ev.Name, err))
	}
	for _, n := range nodes {
		if !st.cl.Healthy(n) {
			panic(fmt.Sprintf("tenancy: scheduler handed out unhealthy node %d", n))
		}
	}
	st.stats[i].Admitted = true
	st.stats[i].Start = st.eng.Now()
	st.stats[i].Nodes = nodes

	j, err := job.New(job.Config{
		Engine: st.eng, Net: st.net, Provider: st.prov,
		Rand:       sim.NewRand(st.cfg.Seed + int64(i+1)*1_000_003),
		Spec:       ev.Spec(nodes),
		QPsPerConn: qpsPerConn,
	})
	if err != nil {
		panic(fmt.Sprintf("tenancy: job %s: %v", ev.Name, err))
	}
	st.jobs[i] = j
	j.Run(1<<30, func(job.Report) { st.depart(i) })
	st.eng.After(sim.FromSeconds(ev.DurationS), j.Stop)
}

// depart records the tenant's exit and hands its nodes to the queue.
func (st *runState) depart(i int) {
	st.finalize(i, st.eng.Now())
	st.jobs[i].Close()
	st.sch.Release(st.stats[i].Nodes)
	st.drainQueue()
}

// finalize freezes a job's measurements as of `end`. Jobs still running
// at the horizon are finalized there; departed jobs were finalized by
// depart and are left untouched.
func (st *runState) finalize(i int, end sim.Time) {
	s := &st.stats[i]
	if !s.Admitted || s.End != 0 {
		return
	}
	s.End = end
	iters := st.jobs[i].IterTimes()
	s.Iters = len(iters)
	if s.Iters == 0 {
		return
	}
	var sum sim.Time
	for _, d := range iters {
		sum += d
	}
	s.AvgIter = sum / sim.Time(s.Iters)
	spec := st.events[i].Spec(s.Nodes)
	// Ratio guards the zero-occupancy and zero-compute corners (a job
	// finalized the instant it was admitted): the metrics must stay 0,
	// never NaN/Inf, because they aggregate into c4 bench -json baselines.
	s.Goodput = metrics.Ratio(float64(s.Iters)*spec.SamplesPerIter, (s.End - s.Start).Seconds())
	s.Stretch = metrics.Ratio(float64(s.AvgIter), float64(spec.IterComputeTime()))
}

// String renders the per-job table plus the aggregate line.
func (r RunResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tenancy — arm %v, placement %v, %d spines, horizon %v\n",
		r.Arm, r.Policy, r.Spines, r.Horizon)
	rows := make([][]string, 0, len(r.Jobs))
	for _, s := range r.Jobs {
		state := "ok"
		switch {
		case s.Rejected:
			state = "rejected"
		case !s.Admitted && s.Arrive > r.Horizon:
			state = "future"
		case !s.Admitted:
			state = "queued"
		case s.End >= r.Horizon:
			state = "running"
		}
		rows = append(rows, []string{
			s.Name,
			fmt.Sprint(len(s.Nodes)),
			fmt.Sprintf("%.1fs", s.Arrive.Seconds()),
			fmt.Sprintf("%.1fs", s.Start.Seconds()),
			fmt.Sprintf("%.1fs", s.End.Seconds()),
			fmt.Sprint(s.Iters),
			fmt.Sprintf("%.1f", s.Goodput),
			fmt.Sprintf("%.2f", s.Stretch),
			state,
		})
	}
	sb.WriteString(metrics.Table(
		[]string{"job", "nodes", "arrive", "start", "end", "iters", "goodput", "stretch", "state"}, rows))
	fmt.Fprintf(&sb, "admitted %d (completed %d, queued-out %d, rejected %d, beyond-horizon %d), aggregate %.1f samples/s, Jain %.3f, mean stretch %.2f\n",
		r.Admitted, r.Completed, r.NeverAdmitted, r.Rejected, r.BeyondHorizon, r.AggGoodput, r.Jain, r.MeanStretch)
	return sb.String()
}
