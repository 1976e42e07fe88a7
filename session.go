package c4

// Session is the one construction path for end-to-end simulations: the
// same options-struct API builds, wires and drives a run whether the
// caller is `c4 sim` (one-shot CLI), `c4 serve` (long-running HTTP
// daemon) or a downstream Go program. A Session owns the whole lifecycle
// — engine, fabric, network, job, C4D/steering, streaming telemetry —
// inside Run, shares no process-global state with sibling sessions, and
// therefore produces byte-identical metrics and telemetry streams for
// equal specs and seeds regardless of what else runs in the process.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/faults"
	"c4/internal/harness"
	"c4/internal/job"
	"c4/internal/plan"
	"c4/internal/rca"
	"c4/internal/scenario"
	"c4/internal/sched"
	"c4/internal/sim"
	"c4/internal/telemetry"
	"c4/internal/tenancy"
	"c4/internal/topo"
	"c4/internal/trace"
	"c4/internal/workload"
)

// Telemetry stream plumbing, re-exported so Session consumers can attach
// sinks without reaching into the internal tree.
type (
	// TelemetrySink receives the merged event-time-ordered record stream.
	TelemetrySink = telemetry.Sink
	// TelemetryRecord is one stream element.
	TelemetryRecord = telemetry.Record
	// TelemetryStreamWriter serializes the stream as JSONL (the
	// `c4 sim -telemetry-out` / `c4 replay` format).
	TelemetryStreamWriter = telemetry.StreamWriter
)

// NewTelemetryStreamWriter wraps a writer into a JSONL stream sink.
func NewTelemetryStreamWriter(w io.Writer) *TelemetryStreamWriter {
	return telemetry.NewStreamWriter(w)
}

// SessionSpec is the JSON-serializable description of one simulation
// session — the body of the server's POST /v1/sessions and the value the
// CLI flags compile into. Exactly one of Scenario, Job or Tenancy selects
// the mode.
type SessionSpec struct {
	// Seed roots every RNG stream of the run; equal specs with equal
	// seeds produce byte-identical results.
	Seed int64 `json:"seed"`
	// Scenario runs one registered experiment by name (see `c4 bench -list`).
	Scenario string `json:"scenario,omitempty"`
	// Job runs the interactive training-job simulation: a distributed job
	// — the Fig 14 preset, or a compiled 3D-parallelism plan when Job.Plan
	// is set — under C4D monitoring, C4P traffic engineering and the
	// steering loop, with an injectable fault.
	Job *SessionJob `json:"job,omitempty"`
	// Tenancy replays a multi-tenant arrival trace on a shared fabric.
	Tenancy *SessionTenancy `json:"tenancy,omitempty"`
}

// DecodeSessionSpec reads a SessionSpec JSON document, the body of
// POST /v1/sessions. Unknown keys are errors, and so is anything but
// whitespace after the document: a second value or junk is refused, not
// ignored.
func DecodeSessionSpec(r io.Reader) (SessionSpec, error) {
	var spec SessionSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return SessionSpec{}, err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return SessionSpec{}, fmt.Errorf("data after the JSON document, which ends at byte %d", end)
	}
	return spec, nil
}

// SessionJob configures the training-job and plan modes (the
// `c4 sim -job ...` and `c4 sim -plan ...` flag set). Every field applies
// to both modes; Plan only picks the strategy and the iteration budget.
// Durations are in virtual seconds, each from 0 to 1e9 (about 31.7
// years); 0 selects the default.
type SessionJob struct {
	// Model is the workload (gpt22b, gpt175b, llama7b, llama13b).
	// Default gpt22b.
	Model string `json:"model,omitempty"`
	// Provider is the path-control policy: baseline | c4p | c4p-dynamic.
	// Default c4p.
	Provider string `json:"provider,omitempty"`
	// Placement is topo (pack leaf groups) or spread (maximize spine
	// traffic) of the job's 16 nodes, or of PP·DP nodes in plan mode.
	// Default spread.
	Placement string `json:"placement,omitempty"`
	// Fault injects one fault through the fault injector, persisting for
	// the rest of the run: none | crash (faults.Crash: the worker process
	// dies, with a GPU Xid signal) | straggler (faults.Straggler: +400 ms
	// of compute per iteration, with a thermal signal) | nic
	// (faults.PortDown: both rail-0 NIC ports lose carrier).
	Fault string `json:"fault,omitempty"`
	// FaultAtS is the injection instant in virtual seconds (default 30).
	FaultAtS float64 `json:"fault_at_s,omitempty"`
	// Victim is the faulty node (default 6). With a fault set, it must be
	// one of the job's nodes.
	Victim *int `json:"victim,omitempty"`
	// HorizonS is the virtual time to simulate, in seconds (default 900).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// NoC4D disables C4D monitoring and recovery.
	NoC4D bool `json:"no_c4d,omitempty"`
	// Online attaches the streaming online detector and logs detections.
	Online bool `json:"online,omitempty"`

	// Plan switches to plan mode: compile and run this 3D-parallelism
	// strategy (e.g. "tp8/pp4/dp2/ga8") for Model on the 16-node testbed.
	// PP and DP are each at most 16, PP·DP at most 16, and GA at most
	// 1024 (plan.MaxGA).
	Plan string `json:"plan,omitempty"`
	// PlanBucketMiB is the DP gradient bucket size (0 = one bucket). It
	// may cut a stage's gradient into at most 4096 buckets
	// (plan.MaxBuckets).
	PlanBucketMiB float64 `json:"plan_bucket_mib,omitempty"`
	// PlanOverlap launches buckets inside the final backward pass.
	PlanOverlap bool `json:"plan_overlap,omitempty"`
	// PlanIters is the iteration budget in plan mode (default 5); the run
	// ends once they are done, or at the horizon.
	PlanIters int `json:"plan_iters,omitempty"`
}

// SessionTenancy configures the multi-tenant trace-replay mode.
type SessionTenancy struct {
	// Trace is the inline arrival trace, in the JSON format documented in
	// README.md (`{"events": [...]}`).
	Trace json.RawMessage `json:"trace"`
	// Policy places arriving jobs: packed | spread | random. Default packed.
	Policy string `json:"policy,omitempty"`
	// Provider is the path-control policy every tenant shares: baseline
	// | c4p | c4p-dynamic. Default c4p.
	Provider string `json:"provider,omitempty"`
	// Spines per rail: 8 = 1:1 fabric, 4 = 2:1 oversubscription.
	// Default 8.
	Spines int `json:"spines,omitempty"`
	// HorizonS ends the replay, in virtual seconds (default 900, at most
	// 1e9).
	HorizonS float64 `json:"horizon_s,omitempty"`
}

// SessionOptions configures a Session beyond its spec.
type SessionOptions struct {
	// Spec selects and parameterizes the simulation.
	Spec SessionSpec
	// Log receives the human-readable timeline (the `c4 sim` stdout
	// rendering). nil discards it.
	Log io.Writer
	// Workers bounds nested worker pools in scenario mode (campaign
	// trials); 0 means GOMAXPROCS.
	Workers int
}

// Session states.
const (
	sessionCreated = iota
	sessionRunning
	sessionFinished
	sessionClosed
)

// Session is one isolated simulation with a managed lifecycle: create
// (validates the spec), attach sinks, Run (builds every engine/fabric/
// RNG from the spec and drives the simulation under a context), read
// Metrics/Summary, Close. A Session runs at most once; the HTTP serving
// plane keeps a table of them, the CLIs create one and exit.
type Session struct {
	mu      sync.Mutex
	spec    SessionSpec
	log     io.Writer
	workers int

	// Resolved at NewSession so bad specs fail at creation time.
	scn scenario.Scenario // scenario mode
	jr  *jobResolved      // job + plan modes
	ten *tenancy.Config   // tenancy mode

	sinks   []TelemetrySink
	tracer  *trace.Tracer
	state   int
	metrics map[string]float64
	summary string
}

type jobResolved struct {
	spec    workload.JobSpec // the job on its placed testbed nodes
	planned bool             // plan mode: print the schedule and breakdown
	opts    plan.Options
	iters   int
	qps     int
	kind    c4p.ProviderKind
	fault   string        // "none" or a sessionFaults key
	faults  []faults.Spec // the fault on the victim; none for "none"
	horizon sim.Time
	noC4D   bool
	online  bool
}

// sessionFaults maps SessionJob.Fault onto its injector archetype and the
// line the session logs at its onset.
var sessionFaults = map[string]struct {
	spec faults.Spec
	log  string
}{
	"crash":     {faults.Spec{Kind: faults.Crash}, "crashing worker process on node %d"},
	"straggler": {faults.Spec{Kind: faults.Straggler, Severity: 0.4}, "node %d becomes a straggler (+400ms/iteration)"},
	"nic":       {faults.Spec{Kind: faults.PortDown}, "node %d loses both NIC ports on rail 0"},
}

// NewSession validates the spec and resolves it against the registries
// (models, scenarios, policies), so an invalid spec fails here — at
// POST /v1/sessions time on the server, at flag-parse time on the CLIs —
// rather than mid-run.
func NewSession(opts SessionOptions) (*Session, error) {
	s := &Session{spec: opts.Spec, log: opts.Log, workers: opts.Workers}
	if s.log == nil {
		s.log = io.Discard
	}
	modes := 0
	if opts.Spec.Scenario != "" {
		modes++
	}
	if opts.Spec.Job != nil {
		modes++
	}
	if opts.Spec.Tenancy != nil {
		modes++
	}
	if modes != 1 {
		return nil, fmt.Errorf("session: spec must set exactly one of scenario, job, tenancy (got %d)", modes)
	}
	switch {
	case opts.Spec.Scenario != "":
		scn, ok := scenario.Get(opts.Spec.Scenario)
		if !ok {
			return nil, fmt.Errorf("session: unknown scenario %q", opts.Spec.Scenario)
		}
		s.scn = scn
	case opts.Spec.Job != nil:
		jr, err := resolveJob(*opts.Spec.Job)
		if err != nil {
			return nil, err
		}
		s.jr = jr
	default:
		cfg, err := resolveTenancy(*opts.Spec.Tenancy)
		if err != nil {
			return nil, err
		}
		cfg.Seed = opts.Spec.Seed
		s.ten = cfg
	}
	return s, nil
}

// The job fabric: MultiJobTestbed(8) with the 16 primaries a job or plan
// runs on and the 8 spares steering swaps in.
const (
	jobNodes   = 16
	spareNodes = 8
)

func jobFabric() topo.Spec {
	spec := topo.MultiJobTestbed(8)
	spec.Nodes = jobNodes + spareNodes
	return spec
}

// seconds converts a spec duration, rejecting values that are not
// finite, are negative, or lie past sim.MaxSpanSeconds.
func seconds(field string, v float64) (sim.Time, error) {
	if !sim.ValidSpan(v) {
		return 0, fmt.Errorf("session: %s = %v, want 0 to %g seconds", field, v, sim.MaxSpanSeconds)
	}
	return sim.FromSeconds(v), nil
}

func resolveJob(js SessionJob) (*jobResolved, error) {
	name := js.Model
	if name == "" {
		name = "gpt22b"
	}
	model, ok := workload.ModelByName(name)
	if !ok {
		return nil, fmt.Errorf("session: unknown job model %q (have: %s)",
			name, strings.Join(workload.ModelNames(), ", "))
	}
	kind, err := c4p.ParseProviderKind(js.Provider)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	jr := &jobResolved{kind: kind, iters: 1_000_000, qps: 4, noC4D: js.NoC4D, online: js.Online}
	if jr.horizon, err = seconds("horizon_s", js.HorizonS); err != nil {
		return nil, err
	}
	if jr.horizon == 0 {
		jr.horizon = 15 * sim.Minute
	}
	faultAt, err := seconds("fault_at_s", js.FaultAtS)
	if err != nil {
		return nil, err
	}
	if faultAt == 0 {
		faultAt = 30 * sim.Second
	}
	placement := js.Placement
	if placement == "" {
		placement = "spread"
	}
	if placement != "topo" && placement != "spread" {
		return nil, fmt.Errorf("session: unknown placement %q (want topo | spread)", js.Placement)
	}
	jr.fault = js.Fault
	if jr.fault == "" {
		jr.fault = "none"
	}
	sf, faulty := sessionFaults[jr.fault]
	if !faulty && jr.fault != "none" {
		return nil, fmt.Errorf("session: unknown fault %q (want none | crash | straggler | nic)", js.Fault)
	}
	victim := 6
	if js.Victim != nil {
		victim = *js.Victim
	}

	world := jobNodes
	var par workload.Parallelism
	if js.Plan != "" {
		if par, err = workload.ParseParallelism(js.Plan); err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		// Bound each factor first: their product could wrap past the check.
		if par.PP > jobNodes || par.DP > jobNodes || par.PP*par.DP > jobNodes {
			return nil, fmt.Errorf("session: strategy %v needs more than the testbed's %d nodes", par, jobNodes)
		}
		if mib := js.PlanBucketMiB; !(mib >= 0 && mib <= math.MaxFloat64) {
			return nil, fmt.Errorf("session: plan_bucket_mib = %v, want a finite size >= 0", mib)
		}
		jr.opts = plan.Options{BucketBytes: js.PlanBucketMiB * (1 << 20), Overlap: js.PlanOverlap}
		jr.planned, jr.qps, jr.iters = true, 8, js.PlanIters
		if jr.iters <= 0 {
			jr.iters = 5
		}
		world = par.PP * par.DP
	}

	var nodes []int
	if placement == "topo" {
		// Topology-aware placement (§III-B): pack leaf groups so ring
		// edges avoid the spine layer entirely where possible.
		t := topo.MustNew(jobFabric())
		alloc, err := sched.New(t).Allocate(world)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		nodes = sched.RingOrder(t, alloc)
	} else {
		// Worst-case placement: alternating leaf groups, so every ring
		// and pipeline edge crosses the spines.
		nodes = harness.InterleavedNodes(world)
	}
	if faulty {
		if !slices.Contains(nodes, victim) {
			return nil, fmt.Errorf("session: victim %d is not one of the job's nodes %v", victim, nodes)
		}
		// The fault outlasts the horizon: nothing clears it inside the run.
		f := sf.spec
		f.Node, f.Start, f.Duration = victim, faultAt, jr.horizon
		jr.faults = []faults.Spec{f}
	}

	switch {
	case jr.planned:
		jr.spec = workload.TenantSpec(model.Name, model, nodes, 550*sim.Millisecond)
		jr.spec.Par, jr.spec.SamplesPerIter = par, 64
	case model.Name == workload.GPT22B.Name:
		jr.spec = workload.Fig14Jobs(nodes)[0]
	case model.Name == workload.Llama7B.Name:
		jr.spec = workload.Fig14Jobs(nodes)[1]
	case model.Name == workload.GPT175B.Name:
		jr.spec = workload.Fig14Jobs(nodes)[2]
	default:
		// Models outside Fig 14 (Llama-13B) run the Job1-style TP8×DP16
		// configuration with their own gradient volume.
		jr.spec = workload.Fig14Jobs(nodes)[0]
		jr.spec.Name, jr.spec.Model = model.Name, model
	}
	// Compiling checks the plan's size caps (GA, buckets per stage).
	if _, err := plan.Compile(jr.spec, jr.opts); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return jr, nil
}

func resolveTenancy(ts SessionTenancy) (*tenancy.Config, error) {
	trace, err := tenancy.ParseTrace(ts.Trace)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	polName := ts.Policy
	if polName == "" {
		polName = "packed"
	}
	pol, err := sched.ParsePolicy(polName)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	arm, err := c4p.ParseProviderKind(ts.Provider)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	horizon, err := seconds("horizon_s", ts.HorizonS)
	if err != nil {
		return nil, err
	}
	if horizon == 0 {
		horizon = 15 * sim.Minute
	}
	return &tenancy.Config{
		Spines:  ts.Spines,
		Policy:  pol,
		Arm:     arm,
		Horizon: horizon,
		Trace:   trace,
	}, nil
}

// Spec returns the session's spec.
func (s *Session) Spec() SessionSpec { return s.spec }

// AttachSink subscribes a telemetry sink to the session's merged record
// stream (job and plan modes; scenario and tenancy runs produce no
// stream). Every attached sink sees the identical, deterministic record
// sequence. It must be called before Run and panics afterwards — a sink
// attached mid-run would see a torn stream.
func (s *Session) AttachSink(sink TelemetrySink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != sessionCreated {
		panic("c4: Session.AttachSink after Run")
	}
	if sink != nil {
		s.sinks = append(s.sinks, sink)
	}
}

// AttachTracer subscribes a sim-time span tracer to the session (job and
// plan modes; scenario and tenancy runs record no spans). Run binds the
// tracer to the run's engine, so span IDs draw from that engine's own
// deterministic ID sequence and the exported trace is byte-identical no
// matter what else runs in the process. Like AttachSink it must be
// called before Run and panics afterwards.
func (s *Session) AttachTracer(tr *Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != sessionCreated {
		panic("c4: Session.AttachTracer after Run")
	}
	if tr != nil {
		s.tracer = tr
	}
}

// Metrics returns the finished run's deterministic key numbers (nil
// before Run completes). The map is a copy; callers may mutate it.
func (s *Session) Metrics() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.metrics)
}

// Summary returns a one-line human-readable outcome ("" before Run
// completes).
func (s *Session) Summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summary
}

// Close marks the session unusable. It is idempotent and safe after a
// failed or cancelled Run; every simulation resource is scoped to Run
// itself, so there is nothing else to release.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == sessionRunning {
		return fmt.Errorf("session: Close while running (cancel the Run context first)")
	}
	s.state = sessionClosed
	s.sinks = nil
	return nil
}

// Run builds the simulation from the spec and drives it to completion,
// or until ctx is cancelled (the engine stops between event instants and
// the cancellation error is returned). A Session runs at most once.
func (s *Session) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	switch s.state {
	case sessionRunning:
		s.mu.Unlock()
		return fmt.Errorf("session: already running")
	case sessionFinished, sessionClosed:
		s.mu.Unlock()
		return fmt.Errorf("session: already ran (sessions run at most once)")
	}
	s.state = sessionRunning
	sinks := s.sinks
	s.mu.Unlock()

	var metrics map[string]float64
	var summary string
	var err error
	switch {
	case s.scn.Name != "":
		metrics, summary, err = s.runScenario(ctx)
	case s.jr != nil:
		metrics, summary, err = s.runJob(ctx, sinks)
	default:
		metrics, summary, err = s.runTenancy(ctx)
	}

	s.mu.Lock()
	s.state = sessionFinished
	s.metrics = metrics
	s.summary = summary
	s.mu.Unlock()
	return err
}

// runScenario executes one registered experiment through the shared
// worker-pool runner, so the nested-pool throttling and panic capture
// match a `c4 bench -only` run exactly.
func (s *Session) runScenario(ctx context.Context) (map[string]float64, string, error) {
	reports := (&scenario.Runner{Workers: s.workers}).Run(ctx, s.spec.Seed, []scenario.Scenario{s.scn})
	rep := reports[0]
	scenario.FprintReport(s.log, rep)
	if rep.Err != nil {
		return nil, "", rep.Err
	}
	metrics := map[string]float64{"sim_events": float64(rep.Events)}
	if s.scn.Metrics != nil {
		maps.Copy(metrics, s.scn.Metrics(rep.Result))
	}
	summary := fmt.Sprintf("scenario %s ok", s.scn.Name)
	if s.scn.Summarize != nil {
		summary = s.scn.Summarize(rep.Result)
	}
	if rep.ShapeErr != nil {
		metrics["shape_failed"] = 1
		summary = fmt.Sprintf("scenario %s SHAPE FAIL: %v", s.scn.Name, rep.ShapeErr)
	}
	return metrics, summary, nil
}

// runTenancy replays the arrival trace. The multi-tenant engine drives
// its own event loop internally, so cancellation is checked only at the
// start; replays are bounded by their horizon.
func (s *Session) runTenancy(ctx context.Context) (map[string]float64, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	res := tenancy.Run(*s.ten)
	fmt.Fprint(s.log, res)
	metrics := map[string]float64{
		"admitted":     float64(res.Admitted),
		"completed":    float64(res.Completed),
		"rejected":     float64(res.Rejected),
		"agg_goodput":  res.AggGoodput,
		"jain":         res.Jain,
		"mean_stretch": res.MeanStretch,
		"sim_events":   float64(res.Fired),
	}
	summary := fmt.Sprintf("%d tenants admitted, %d completed, %.1f samples/s aggregate, Jain %.3f",
		res.Admitted, res.Completed, res.AggGoodput, res.Jain)
	return metrics, summary, nil
}

// runJob is the interactive training-job simulation (`c4 sim -job` and
// `c4 sim -plan`): the Fig 14 preset or a compiled 3D-parallelism plan,
// with an injectable fault, under the full detect → isolate → restart
// loop. It runs to the horizon, or until a plan's iterations are done.
func (s *Session) runJob(ctx context.Context, sinks []TelemetrySink) (map[string]float64, string, error) {
	jr := s.jr
	var r *faults.Rig
	logf := func(format string, args ...any) {
		fmt.Fprintf(s.log, "[%12v] ", r.Eng.Now())
		fmt.Fprintf(s.log, format+"\n", args...)
	}
	analyzer := rca.NewAnalyzer(0)
	cfg := faults.RigConfig{
		Fabric: jobFabric(), Job: jr.spec, Plan: jr.opts, QPs: jr.qps,
		Provider: jr.kind.On(s.spec.Seed), Seed: s.spec.Seed, Context: ctx,
		NoC4D: jr.noC4D, Trace: s.tracer, Faults: jr.faults,
		// The server monitor sees the fault before anyone else.
		OnTelemetry: func(tel rca.Telemetry) {
			logf("FAULT: "+sessionFaults[jr.fault].log, tel.Node)
			analyzer.Observe(tel)
		},
	}
	// Streaming telemetry plane: attached sinks (JSONL export, the SSE
	// hub) and/or the online detector racing batch C4D, all fed from the
	// same instrumentation point.
	var pipe *telemetry.Pipeline
	if len(sinks) > 0 || jr.online {
		cfg.Stream = func(eng *sim.Engine) accl.StatsSink {
			consumers := slices.Clone(sinks)
			if jr.online {
				det := telemetry.NewOnlineDetector(eng, telemetry.DetectorConfig{})
				det.Subscribe(func(d c4d.Detection) { logf("ONLINE: %v", d) })
				consumers = append(consumers, det)
			}
			pipe = telemetry.NewPipeline(eng, telemetry.PipelineConfig{}, consumers...)
			return pipe
		}
	}
	// Once every iteration is done, stop the master's reporting ticks and
	// drop a fault still pending, so the event queue drains.
	done := func(rep job.Report) {
		if rep.Iters < jr.iters {
			return
		}
		if r.Master != nil {
			r.Master.Stop()
		}
		r.Injector.Drop()
	}
	if !jr.noC4D {
		cfg.Steering = &faults.SteeringPolicy{
			Spares:         spareNodes,
			IsolationDelay: 30 * sim.Second,
			RestartDelay:   3 * sim.Minute,
			Restart: func(node, repl int, err error) {
				logf("steering: replacing node %d with spare %d, restarting job", node, repl)
				if err != nil {
					logf("steering: replace failed: %v", err)
					return
				}
				r.Job.Run(jr.iters-r.Job.Report().Iters, done)
			},
		}
	}
	r, err := faults.NewRig(cfg)
	if err != nil {
		return nil, "", err
	}
	j := r.Job
	if jr.planned {
		fmt.Fprintln(s.log, j.Plan())
		j.OnIteration(func(i int, d sim.Time) {
			fmt.Fprintf(s.log, "iteration %2d: %v\n", i, d)
		})
	} else {
		j.OnIteration(func(i int, d sim.Time) {
			if i%20 == 0 {
				logf("iteration %d done in %v (%.1f samples/sec)",
					i, d, jr.spec.SamplesPerIter/d.Seconds())
			}
		})
	}
	master := r.Master
	if master != nil {
		master.Subscribe(func(ev c4d.Event) {
			logf("C4D: %v", ev)
			rep := analyzer.Classify(ev)
			top := rep.Top()
			logf("RCA: most likely %v (%.0f%% confidence)", top.Kind, top.Confidence*100)
			if tr := s.tracer; tr.Enabled() {
				// Diagnosis hangs off the detection that triggered it.
				tr.Event(tr.Mark("detect"), "rca", fmt.Sprintf("%v", top.Kind)).
					Annotate("confidence", fmt.Sprintf("%.2f", top.Confidence))
			}
			if (ev.Syndrome == c4d.CommHang || ev.Syndrome == c4d.NonCommHang) && r.Steering.Handle(ev) {
				logf("steering: isolating node %d, stopping job", ev.Node)
			}
		})
	}

	j.Run(jr.iters, done)
	runErr := r.Run(jr.horizon)
	if pipe != nil {
		pipe.Stop()
	}
	if runErr != nil {
		return nil, "", runErr
	}

	rep := j.Report()
	metrics := map[string]float64{
		"iterations": float64(rep.Iters),
		"sim_events": float64(r.Eng.Fired()),
	}
	var summary string
	if jr.planned {
		fmt.Fprintf(s.log, "\n%d iterations under %v:\n", rep.Iters, jr.kind)
		fmt.Fprintf(s.log, "  avg iteration  %v (%.1f samples/s)\n", rep.AvgIter, rep.SamplesPerSec)
		fmt.Fprintf(s.log, "  compute        %v\n", rep.AvgCompute)
		fmt.Fprintf(s.log, "  pipeline bubble %v\n", rep.AvgBubble)
		fmt.Fprintf(s.log, "  exposed comm   %v (%.1f%% of the iteration)\n", rep.AvgExposed, rep.ExposedShare()*100)
		metrics["avg_iter_s"] = rep.AvgIter.Seconds()
		metrics["samples_per_sec"] = rep.SamplesPerSec
		metrics["compute_s"] = rep.AvgCompute.Seconds()
		metrics["bubble_s"] = rep.AvgBubble.Seconds()
		metrics["exposed_s"] = rep.AvgExposed.Seconds()
		metrics["exposed_share"] = rep.ExposedShare()
		summary = fmt.Sprintf("%v: avg iteration %v (%.1f samples/s), exposed comm %.1f%%",
			jr.spec.Par, rep.AvgIter, rep.SamplesPerSec, rep.ExposedShare()*100)
	} else {
		fmt.Fprintln(s.log)
		logf("simulation finished: %d iterations completed", rep.Iters)
		summary = fmt.Sprintf("%d iterations completed", rep.Iters)
		if rep.Iters > 0 {
			logf("average iteration: %v (%.1f samples/sec)", rep.AvgIter, rep.SamplesPerSec)
			metrics["avg_iter_s"] = rep.AvgIter.Seconds()
			metrics["samples_per_sec"] = rep.SamplesPerSec
			summary = fmt.Sprintf("%d iterations, avg %v (%.1f samples/sec)",
				rep.Iters, rep.AvgIter, rep.SamplesPerSec)
		}
		if master != nil {
			logf("C4D emitted %d events", len(master.Events()))
		}
		if pipe != nil {
			logf("telemetry: %d records streamed (%d dropped)", pipe.Records(), pipe.Dropped())
		}
	}
	if master != nil {
		metrics["c4d_events"] = float64(len(master.Events()))
	}
	if pipe != nil {
		metrics["telemetry_records"] = float64(pipe.Records())
		metrics["telemetry_dropped"] = float64(pipe.Dropped())
	}
	return metrics, summary, nil
}
