// Package c4 is a from-scratch Go reproduction of "Enhancing Large-Scale
// AI Training Efficiency: The C4 Solution for Real-Time Anomaly Detection
// and Communication Optimization" (Dong et al., Alibaba, HPCA 2025,
// arXiv:2406.04594).
//
// It contains the paper's two contributions and every substrate they run
// on, all simulated deterministically on a laptop:
//
//   - C4D — real-time fault detection: instrumented collective library
//     (accl) and a central master (c4d), fed by its monitoring records,
//     that localizes hangs, slow connections/NICs and stragglers from
//     transport timing, plus the job steering service (steering) that
//     isolates nodes and restarts jobs from spares.
//   - C4P — cluster-scale traffic engineering (c4p): path probing, QP
//     placement across spines and bonded ports, and dynamic load balance
//     under link failures.
//   - Substrates: a discrete-event engine (sim), a dual-plane leaf/spine
//     Clos fabric (topo), a max-min-fair flow-level network simulator with
//     ECMP and CNP modeling (netsim), a hardware fault model (cluster),
//     and a distributed-training job model (job, workload).
//
// The harness package reproduces every table and figure of the paper's
// evaluation; see EXPERIMENTS.md for paper-vs-measured numbers. This
// package re-exports the main entry points so downstream users can build
// their own scenarios without spelunking the internal tree:
//
//	env, _ := c4.OpenEnv(c4.EnvOptions{Spec: c4.PaperTestbed()})
//	prov := env.NewProvider(c4.C4PStatic, 1)
//	comm, _ := c4.NewCommunicator(c4.CommConfig{
//	    Engine: env.Eng, Net: env.Net, Provider: prov,
//	}, []int{0, 2, 4, 6})
//	comm.AllReduce(256<<20, nil, func(r c4.CollResult) {
//	    fmt.Printf("busbw %.1f Gbps\n", r.BusGbps)
//	})
//	env.Eng.Run()
package c4

import (
	"context"
	"fmt"
	"io"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/ckpt"
	"c4/internal/cluster"
	"c4/internal/harness"
	"c4/internal/job"
	"c4/internal/netsim"
	"c4/internal/plan"
	"c4/internal/rca"
	"c4/internal/scenario"
	"c4/internal/sched"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/trace"
	"c4/internal/workload"
)

// Simulation core.
type (
	// Engine is the deterministic discrete-event simulator.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Rand is the seeded random source all stochastic components use.
	Rand = sim.Rand
)

// NewRand returns a deterministic random source.
func NewRand(seed int64) *Rand { return sim.NewRand(seed) }

// Re-exported time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Fabric and network.
type (
	// ClusterSpec describes a fabric to build.
	ClusterSpec = topo.Spec
	// Topology is a built fabric.
	Topology = topo.Topology
	// NetConfig tunes the network simulator: its calibration and the
	// parallel settle width (SettleWorkers), the number of goroutines that
	// fill the link components a recompute re-fills — the flow-class
	// kernel's one performance knob.
	NetConfig = netsim.Config
)

// PaperTestbed is the paper's Table II testbed (16 nodes × 8 H800 GPUs,
// dual-port 200 Gbps NICs, 1:1 fat-tree).
func PaperTestbed() ClusterSpec { return topo.PaperTestbed() }

// MultiJobTestbed is the fabric of Figs 10–13; spines=8 gives 1:1
// oversubscription, 4 gives 2:1.
func MultiJobTestbed(spines int) ClusterSpec { return topo.MultiJobTestbed(spines) }

// Collective communication (ACCL).
type (
	// CommConfig wires a communicator to the fabric.
	CommConfig = accl.Config
	// Communicator executes collectives among nodes.
	Communicator = accl.Communicator
	// CollResult summarizes a completed collective.
	CollResult = accl.Result
)

// NewCommunicator opens a communicator over the given nodes.
func NewCommunicator(cfg CommConfig, nodes []int) (*Communicator, error) {
	return accl.NewCommunicator(cfg, nodes)
}

// C4P traffic engineering.
type (
	// C4PMaster is the cluster-scale traffic-engineering control plane.
	C4PMaster = c4p.Master
	// C4PMode selects the failure-response policy.
	C4PMode = c4p.Mode
)

// C4P failure-response policies.
const (
	// C4PStaticMode plans at connect time only.
	C4PStaticMode = c4p.Static
)

// C4PMasterOptions configures OpenC4PMaster.
type C4PMasterOptions struct {
	// Topology is the fabric the master plans paths on (required).
	Topology *Topology
	// Mode is the failure-response policy; the zero value is
	// C4PStaticMode.
	Mode C4PMode
	// Rand seeds the master's tie-breaking; nil means NewRand(Seed).
	Rand *Rand
	// Seed is used only when Rand is nil.
	Seed int64
}

// OpenC4PMaster creates a C4P traffic-engineering master for the fabric.
func OpenC4PMaster(opts C4PMasterOptions) (*C4PMaster, error) {
	if opts.Topology == nil {
		return nil, fmt.Errorf("c4: OpenC4PMaster requires Topology")
	}
	r := opts.Rand
	if r == nil {
		r = sim.NewRand(opts.Seed)
	}
	return c4p.NewMaster(opts.Topology, opts.Mode, r), nil
}

// C4D fault detection.
type (
	// C4DConfig tunes the detectors.
	C4DConfig = c4d.Config
	// C4DMaster is the central analyzer, and the sink a communicator's
	// monitoring records flow into (an accl.StatsSink).
	C4DMaster = c4d.Master
	// C4DEvent is one finding.
	C4DEvent = c4d.Event
	// Syndrome classifies a finding.
	Syndrome = c4d.Syndrome
)

// Syndromes of §III-A.
const (
	CommHang    = c4d.CommHang
	NonCommHang = c4d.NonCommHang
	CommSlow    = c4d.CommSlow
	NonCommSlow = c4d.NonCommSlow
)

// NewC4DMaster creates a C4D master and starts its reporting loop.
func NewC4DMaster(eng *Engine, cfg C4DConfig) *C4DMaster { return c4d.NewMaster(eng, cfg) }

// Jobs, workloads and recovery.
type (
	// JobConfig wires a training job to the cluster.
	JobConfig = job.Config
	// Job is a running training job.
	Job = job.Job
	// JobReport summarizes a run.
	JobReport = job.Report
	// JobSpec is a training workload.
	JobSpec = workload.JobSpec
	// Model is an LLM configuration.
	Model = workload.Model
	// Parallelism is a TP/PP/DP/GA strategy.
	Parallelism = workload.Parallelism
	// Machines is the compute fleet plus backup pool.
	Machines = cluster.Cluster
	// Fault is an injected hardware/software event.
	Fault = cluster.Fault
)

// Paper models.
var (
	GPT22B  = workload.GPT22B
	GPT175B = workload.GPT175B
)

// NewJob opens a training job.
func NewJob(cfg JobConfig) (*Job, error) { return job.New(cfg) }

// Training-iteration planner (internal/plan): the compiler from a 3D
// parallelization strategy to a timed 1F1B micro-batch schedule, and the
// executor every job's iterations run through.
type (
	// PlanOptions holds the planner's two knobs, gradient bucket size and
	// comm/compute overlap; the forward share (1/3) and the activation
	// tensor (plan.DefaultActivationBytes) are fixed.
	PlanOptions = plan.Options
	// Plan is a compiled training iteration.
	Plan = plan.Plan
)

// CompilePlan expands a job spec's strategy into an iteration schedule.
func CompilePlan(spec JobSpec, opts PlanOptions) (*Plan, error) { return plan.Compile(spec, opts) }

// NewMachines builds n machines with g GPUs each plus spares.
func NewMachines(n, g, spares int) *Machines { return cluster.NewCluster(n, g, spares) }

// Operational subsystems around the core loop.
type (
	// CheckpointManager is the Gemini-style two-tier snapshot manager.
	CheckpointManager = ckpt.Manager
	// CheckpointConfig tunes checkpointing cadence and persistence.
	CheckpointConfig = ckpt.Config
	// RCAnalyzer is the background root-cause analysis service (Fig 4).
	RCAnalyzer = rca.Analyzer
	// Telemetry is one server/network-monitor observation for RCA.
	Telemetry = rca.Telemetry
	// Scheduler is the topology-aware node allocator (§III-B).
	Scheduler = sched.Scheduler
)

// NewCheckpointManager creates a checkpoint manager on the engine.
func NewCheckpointManager(eng *Engine, cfg CheckpointConfig) *CheckpointManager {
	return ckpt.NewManager(eng, cfg)
}

// NewRCAnalyzer creates a root-cause analyzer with the given correlation
// window (0 = default 5 minutes).
func NewRCAnalyzer(window Time) *RCAnalyzer { return rca.NewAnalyzer(window) }

// NewScheduler creates a topology-aware scheduler over the fabric.
func NewScheduler(t *Topology) *Scheduler { return sched.New(t) }

// Sim-time causal tracing (internal/trace): a deterministic span recorder
// across every simulation layer, exported as Chrome trace-event JSON
// (open in Perfetto) or reduced to critical-path profiles by `c4 trace`.
type (
	// Tracer records sim-time spans; attach one to a Session with
	// AttachTracer, then export its Spans after Run.
	Tracer = trace.Tracer
	// TraceSpan is one recorded interval (or instant event).
	TraceSpan = trace.Span
)

// NewTracer creates an unbound tracer; Session.Run binds it to the run's
// engine so span IDs draw from the engine's own deterministic sequence.
func NewTracer() *Tracer { return trace.New() }

// WriteTrace exports spans as Chrome trace-event JSON.
func WriteTrace(w io.Writer, spans []*TraceSpan) error { return trace.WriteChrome(w, spans) }

// Experiment harness: one runner per paper table/figure. Each result has
// String() and CheckShape().
type (
	// Env is one simulated cluster instance for experiments.
	Env = harness.Env
	// ProviderKind is the path-control policy under test: which provider
	// routes each QP (Env.NewProvider builds it) and whether ACCL
	// re-weights QPs, which only C4PDynamic does.
	ProviderKind = c4p.ProviderKind
)

// Path-control policies compared in the evaluation.
const (
	BaselineECMP = c4p.Baseline
	C4PStatic    = c4p.C4PStatic
	C4PDynamic   = c4p.C4PDynamic
)

// EnvOptions configures OpenEnv.
type EnvOptions struct {
	// Spec describes the fabric; the zero value means PaperTestbed().
	Spec ClusterSpec
	// Net tunes the network simulator; nil means the calibration used
	// throughout the repository.
	Net *NetConfig
}

// OpenEnv builds an experiment environment — engine, fabric, network —
// reporting spec errors instead of panicking.
func OpenEnv(opts EnvOptions) (*Env, error) {
	spec := opts.Spec
	if spec.Nodes == 0 {
		spec = topo.PaperTestbed()
	}
	t, err := topo.New(spec)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig()
	if opts.Net != nil {
		cfg = *opts.Net
	}
	eng := sim.NewEngine()
	return &Env{Eng: eng, Topo: t, Net: netsim.New(eng, t, cfg)}, nil
}

// Scenario registry and parallel experiment runner. Every paper table and
// figure is a registered scenario (see EXPERIMENTS.md for the index);
// downstream users can register their own workloads and run any selection
// concurrently, with results guaranteed byte-identical to a serial sweep.
type (
	// Scenario is one named, parameterized experiment.
	Scenario = scenario.Scenario
	// ScenarioCtx carries the seed and statistics of one execution.
	ScenarioCtx = scenario.Ctx
	// ScenarioResult is a printable, shape-checked experiment outcome.
	ScenarioResult = scenario.Result
	// ScenarioRunner executes scenario sets on a worker pool.
	ScenarioRunner = scenario.Runner
	// ScenarioReport is one scenario's outcome plus execution stats.
	ScenarioReport = scenario.Report
)

// RegisterScenario adds an experiment to the global registry.
func RegisterScenario(s Scenario) { scenario.Register(s) }

// Scenarios lists every registered scenario in registration order.
func Scenarios() []Scenario { return scenario.All() }

// GetScenario fetches a registered scenario by name.
func GetScenario(name string) (Scenario, bool) { return scenario.Get(name) }

// SelectScenarios resolves a comma-separated selection (globs allowed).
func SelectScenarios(selection string) ([]Scenario, error) { return scenario.Select(selection) }

// RunScenario executes one scenario with the given seed. ctx cancels a
// run between scenarios (nil means context.Background()).
func RunScenario(ctx context.Context, s Scenario, seed int64) ScenarioReport {
	return scenario.RunOne(ctx, s, seed)
}
