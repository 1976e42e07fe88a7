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
	"sync"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/cluster"
	"c4/internal/harness"
	"c4/internal/job"
	"c4/internal/plan"
	"c4/internal/rca"
	"c4/internal/scenario"
	"c4/internal/sched"
	"c4/internal/sim"
	"c4/internal/steering"
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
	// under C4D monitoring and C4P traffic engineering with an injectable
	// fault — or, when Job.Plan is set, a compiled 3D-parallelism plan.
	Job *SessionJob `json:"job,omitempty"`
	// Tenancy replays a multi-tenant arrival trace on a shared fabric.
	Tenancy *SessionTenancy `json:"tenancy,omitempty"`
}

// SessionJob configures the training-job and plan modes (the
// `c4 sim -job ...` and `c4 sim -plan ...` flag set).
type SessionJob struct {
	// Model is the workload (gpt22b, gpt175b, llama7b, llama13b).
	// Default gpt22b.
	Model string `json:"model,omitempty"`
	// Provider is the path-control policy: baseline | c4p | c4p-dynamic.
	// Default c4p.
	Provider string `json:"provider,omitempty"`
	// Placement is topo (pack leaf groups) or spread (maximize spine
	// traffic). Default spread. Ignored in plan mode.
	Placement string `json:"placement,omitempty"`
	// Fault injects one fault: none | crash | straggler | nic.
	Fault string `json:"fault,omitempty"`
	// FaultAtS is the injection instant in virtual seconds (default 30).
	FaultAtS float64 `json:"fault_at_s,omitempty"`
	// Victim is the faulty node (default 6).
	Victim *int `json:"victim,omitempty"`
	// HorizonS is the virtual time to simulate, in seconds (default 900).
	HorizonS float64 `json:"horizon_s,omitempty"`
	// NoC4D disables C4D monitoring and recovery.
	NoC4D bool `json:"no_c4d,omitempty"`
	// Online attaches the streaming online detector and logs detections.
	Online bool `json:"online,omitempty"`

	// Plan switches to plan mode: compile and run this 3D-parallelism
	// strategy (e.g. "tp8/pp4/dp2/ga8") for Model on the 16-node testbed.
	Plan string `json:"plan,omitempty"`
	// PlanBucketMiB is the DP gradient bucket size (0 = one bucket).
	PlanBucketMiB float64 `json:"plan_bucket_mib,omitempty"`
	// PlanOverlap launches buckets inside the final backward pass.
	PlanOverlap bool `json:"plan_overlap,omitempty"`
	// PlanIters is the iteration count in plan mode (default 5).
	PlanIters int `json:"plan_iters,omitempty"`
}

// SessionTenancy configures the multi-tenant trace-replay mode.
type SessionTenancy struct {
	// Trace is the inline arrival trace, in the JSON format documented in
	// README.md (`{"events": [...]}`).
	Trace json.RawMessage `json:"trace"`
	// Policy places arriving jobs: packed | spread | random. Default packed.
	Policy string `json:"policy,omitempty"`
	// Provider is the steering arm: baseline | c4p | c4p-dynamic.
	// Default c4p.
	Provider string `json:"provider,omitempty"`
	// Spines per rail: 8 = 1:1 fabric, 4 = 2:1 oversubscription.
	// Default 8.
	Spines int `json:"spines,omitempty"`
	// HorizonS ends the replay, in virtual seconds (default 900).
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
	model     workload.Model
	kind      harness.ProviderKind
	placement string
	fault     string
	faultAt   sim.Time
	victim    int
	horizon   sim.Time
	noC4D     bool
	online    bool

	plan      workload.Parallelism // plan mode when planSet
	planSet   bool
	planOpts  plan.Options
	planIters int
}

// parseProviderKind maps the shared CLI/spec provider names onto the
// harness policy kinds.
func parseProviderKind(s string) (harness.ProviderKind, error) {
	switch s {
	case "", "c4p":
		return harness.C4PStatic, nil
	case "baseline":
		return harness.Baseline, nil
	case "c4p-dynamic":
		return harness.C4PDynamic, nil
	}
	return 0, fmt.Errorf("unknown provider %q (want baseline | c4p | c4p-dynamic)", s)
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

func resolveJob(js SessionJob) (*jobResolved, error) {
	jr := &jobResolved{}
	name := js.Model
	if name == "" {
		name = "gpt22b"
	}
	model, ok := workload.ModelByName(name)
	if !ok {
		return nil, fmt.Errorf("session: unknown job model %q (have: %s)",
			name, joinNames(workload.ModelNames()))
	}
	jr.model = model
	kind, err := parseProviderKind(js.Provider)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	jr.kind = kind

	jr.horizon = sim.FromSeconds(js.HorizonS)
	if js.HorizonS <= 0 {
		jr.horizon = 15 * sim.Minute
	}
	jr.online = js.Online

	if js.Plan != "" {
		par, err := workload.ParseParallelism(js.Plan)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		if world := par.PP * par.DP; world > 16 {
			return nil, fmt.Errorf("session: strategy %v needs %d nodes, testbed has 16", par, world)
		}
		jr.plan, jr.planSet = par, true
		jr.planOpts = plan.Options{BucketBytes: js.PlanBucketMiB * (1 << 20), Overlap: js.PlanOverlap}
		jr.planIters = js.PlanIters
		if jr.planIters <= 0 {
			jr.planIters = 5
		}
		return jr, nil
	}

	jr.placement = js.Placement
	if jr.placement == "" {
		jr.placement = "spread"
	}
	if jr.placement != "topo" && jr.placement != "spread" {
		return nil, fmt.Errorf("session: unknown placement %q (want topo | spread)", js.Placement)
	}
	jr.fault = js.Fault
	if jr.fault == "" {
		jr.fault = "none"
	}
	switch jr.fault {
	case "none", "crash", "straggler", "nic":
	default:
		return nil, fmt.Errorf("session: unknown fault %q (want none | crash | straggler | nic)", js.Fault)
	}
	jr.faultAt = sim.FromSeconds(js.FaultAtS)
	if js.FaultAtS <= 0 {
		jr.faultAt = 30 * sim.Second
	}
	jr.victim = 6
	if js.Victim != nil {
		jr.victim = *js.Victim
	}
	jr.noC4D = js.NoC4D
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
	var arm tenancy.Arm
	switch ts.Provider {
	case "baseline":
		arm = tenancy.ArmPinnedECMP
	case "", "c4p":
		arm = tenancy.ArmC4PStatic
	case "c4p-dynamic":
		arm = tenancy.ArmC4P
	default:
		return nil, fmt.Errorf("session: unknown provider %q (want baseline | c4p | c4p-dynamic)", ts.Provider)
	}
	horizon := sim.FromSeconds(ts.HorizonS)
	if ts.HorizonS <= 0 {
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

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
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
	if s.metrics == nil {
		return nil
	}
	out := make(map[string]float64, len(s.metrics))
	for k, v := range s.metrics {
		out[k] = v
	}
	return out
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
	case s.jr != nil && s.jr.planSet:
		metrics, summary, err = s.runPlanned(ctx, sinks)
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
		for k, v := range s.scn.Metrics(rep.Result) {
			metrics[k] = v
		}
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

// newPipeline wires the attached sinks (plus the optional online
// detector) into a streaming telemetry pipeline on the job's engine, or
// returns nil when nothing consumes the stream.
func (s *Session) newPipeline(env *harness.Env, sinks []TelemetrySink, online bool, logf func(string, ...any)) *telemetry.Pipeline {
	var consumers []telemetry.Sink
	consumers = append(consumers, sinks...)
	if online {
		det := telemetry.NewOnlineDetector(env.Eng, telemetry.DetectorConfig{})
		det.Subscribe(func(d c4d.Detection) {
			logf("ONLINE: %v", d)
		})
		consumers = append(consumers, det)
	}
	if len(consumers) == 0 {
		return nil
	}
	return telemetry.NewPipeline(env.Eng, telemetry.PipelineConfig{}, consumers...)
}

// runJob is the interactive training-job simulation: the full detect →
// isolate → restart loop under an injectable fault (`c4 sim -job`).
func (s *Session) runJob(ctx context.Context, sinks []TelemetrySink) (map[string]float64, string, error) {
	jr := s.jr
	spec := topo.MultiJobTestbed(8)
	spec.Nodes = 24 // 16 primaries + 8 spares
	env := harness.NewEnv(spec)
	if s.tracer != nil {
		s.tracer.Bind(env.Eng)
		env.Net.Trace = s.tracer
	}
	machines := cluster.NewCluster(16, 8, 8)

	var nodes []int
	switch jr.placement {
	case "topo":
		// Topology-aware placement (§III-B): pack leaf groups so ring
		// edges avoid the spine layer entirely where possible.
		sc := sched.New(env.Topo)
		alloc, err := sc.Allocate(16)
		if err != nil {
			return nil, "", err
		}
		nodes = sched.RingOrder(env.Topo, alloc)
	default: // "spread"
		// Worst-case placement: every ring edge crosses the spines.
		for i := 0; i < 16; i++ {
			if i%2 == 0 {
				nodes = append(nodes, i/2)
			} else {
				nodes = append(nodes, 8+i/2)
			}
		}
	}

	specs := workload.Fig14Jobs(nodes)
	var jobSpec workload.JobSpec
	switch jr.model.Name {
	case workload.GPT22B.Name:
		jobSpec = specs[0]
	case workload.Llama7B.Name:
		jobSpec = specs[1]
	case workload.GPT175B.Name:
		jobSpec = specs[2]
	default:
		// Models outside Fig 14 (Llama-13B) run the Job1-style TP8×DP16
		// configuration with their own gradient volume.
		jobSpec = specs[0]
		jobSpec.Name, jobSpec.Model = jr.model.Name, jr.model
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(s.log, "[%12v] ", env.Eng.Now())
		fmt.Fprintf(s.log, format+"\n", args...)
	}

	analyzer := rca.NewAnalyzer(0)
	var fleet *c4d.Fleet
	var master *c4d.Master
	jobCfg := job.Config{
		Engine: env.Eng, Net: env.Net,
		Provider:   env.NewProvider(jr.kind, s.spec.Seed),
		Rails:      []int{0},
		Spec:       jobSpec,
		Rand:       sim.NewRand(s.spec.Seed),
		Context:    ctx,
		QPsPerConn: 4,
	}
	if !jr.noC4D {
		master = c4d.NewMaster(c4d.Config{Trace: s.tracer})
		fleet = c4d.NewFleet(env.Eng, master)
		jobCfg.Sink = fleet
	}

	// Streaming telemetry plane: attached sinks (JSONL export, the SSE
	// hub) and/or the online detector racing batch C4D, all fed from the
	// same instrumentation point.
	pipe := s.newPipeline(env, sinks, jr.online, logf)
	if pipe != nil {
		jobCfg.Sink = accl.Fanout(jobCfg.Sink, pipe)
	}
	j, err := job.New(jobCfg)
	if err != nil {
		return nil, "", err
	}
	j.OnIteration(func(i int, d sim.Time) {
		if i%20 == 0 {
			logf("iteration %d done in %v (%.1f samples/sec)",
				i, d, jobSpec.SamplesPerIter/d.Seconds())
		}
	})

	if master != nil {
		nextSpare := 16
		svc := steering.NewService(steering.Config{
			Engine: env.Eng, Cluster: machines,
			IsolationDelay: 30 * sim.Second,
			RestartDelay:   3 * sim.Minute,
			Trace:          s.tracer,
			Isolate: func(node int) {
				logf("steering: isolating node %d, stopping job", node)
				j.Stop()
			},
			Restart: func(node, repl int) {
				spare := nextSpare
				nextSpare++
				logf("steering: replacing node %d with spare %d, restarting job", node, spare)
				if err := j.ReplaceNode(node, spare); err != nil {
					logf("steering: replace failed: %v", err)
					return
				}
				j.Run(1_000_000, nil)
			},
		})
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
			if ev.Syndrome == c4d.CommHang || ev.Syndrome == c4d.NonCommHang {
				svc.Handle(ev)
			}
		})
	}

	j.Run(1_000_000, nil)

	if jr.fault != "none" {
		env.Eng.Schedule(jr.faultAt, func() {
			if tr := s.tracer; tr.Enabled() {
				// The session's injected fault persists until recovery, so
				// its span stays open (exporters draw it to the horizon);
				// the "fault" mark parents detect/steer spans under it.
				sp := tr.Start(nil, "fault", jr.fault)
				sp.Annotate("node", fmt.Sprintf("%d", jr.victim))
				tr.SetMark("fault", sp)
			}
			switch jr.fault {
			case "crash":
				logf("FAULT: crashing worker process on node %d", jr.victim)
				// The server monitor sees the GPU Xid before anyone else.
				analyzer.Observe(rca.Telemetry{Time: env.Eng.Now(), Kind: rca.TelemetryXidError, Node: jr.victim})
				j.SetCrashed(jr.victim, true)
			case "straggler":
				logf("FAULT: node %d becomes a straggler (+400ms/iteration)", jr.victim)
				j.SetStraggler(jr.victim, 400*sim.Millisecond)
			case "nic":
				logf("FAULT: node %d loses both NIC ports on rail 0", jr.victim)
				analyzer.Observe(rca.Telemetry{Time: env.Eng.Now(), Kind: rca.TelemetryNICDown, Node: jr.victim})
				for p := 0; p < topo.Planes; p++ {
					port := env.Topo.PortAt(jr.victim, 0, p)
					env.Net.SetLinkUp(port.Up, false)
					env.Net.SetLinkUp(port.Down, false)
				}
			}
		})
	}

	runErr := runEngineTo(ctx, env.Eng, jr.horizon)
	if fleet != nil {
		fleet.Stop()
	}
	var streamed, dropped uint64
	if pipe != nil {
		pipe.Stop()
		streamed, dropped = pipe.Records(), pipe.Dropped()
	}
	if runErr != nil {
		return nil, "", runErr
	}

	iters := j.IterTimes()
	fmt.Fprintln(s.log)
	logf("simulation finished: %d iterations completed", len(iters))
	metrics := map[string]float64{
		"iterations": float64(len(iters)),
		"sim_events": float64(env.Eng.Fired()),
	}
	summary := fmt.Sprintf("%d iterations completed", len(iters))
	if len(iters) > 0 {
		var sum sim.Time
		for _, d := range iters {
			sum += d
		}
		avg := sum / sim.Time(len(iters))
		logf("average iteration: %v (%.1f samples/sec)", avg, jobSpec.SamplesPerIter/avg.Seconds())
		metrics["avg_iter_s"] = avg.Seconds()
		metrics["samples_per_sec"] = jobSpec.SamplesPerIter / avg.Seconds()
		summary = fmt.Sprintf("%d iterations, avg %v (%.1f samples/sec)",
			len(iters), avg, jobSpec.SamplesPerIter/avg.Seconds())
	}
	if master != nil {
		logf("C4D emitted %d events", len(master.Events()))
		metrics["c4d_events"] = float64(len(master.Events()))
	}
	if pipe != nil {
		logf("telemetry: %d records streamed (%d dropped)", streamed, dropped)
		metrics["telemetry_records"] = float64(streamed)
		metrics["telemetry_dropped"] = float64(dropped)
	}
	return metrics, summary, nil
}

// runPlanned compiles one 3D-parallelism strategy into a training-
// iteration plan, executes it on the 16-node testbed under the chosen
// provider, and reports the compiled schedule plus the measured
// iteration breakdown (`c4 sim -plan`).
func (s *Session) runPlanned(ctx context.Context, sinks []TelemetrySink) (map[string]float64, string, error) {
	jr := s.jr
	world := jr.plan.PP * jr.plan.DP
	// Spread placement: alternating leaf groups, so ring and pipeline
	// edges cross the spine layer — the same placement the plan/*
	// scenarios sweep.
	nodes := harness.InterleavedNodes(world)
	env := harness.NewEnv(topo.MultiJobTestbed(8))
	if s.tracer != nil {
		s.tracer.Bind(env.Eng)
		env.Net.Trace = s.tracer
	}
	spec := workload.JobSpec{
		Name:                 jr.model.Name,
		Model:                jr.model,
		Par:                  jr.plan,
		Nodes:                nodes,
		ComputePerMicroBatch: 550 * sim.Millisecond,
		ComputeJitter:        0.02,
		SamplesPerIter:       64,
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(s.log, "[%12v] ", env.Eng.Now())
		fmt.Fprintf(s.log, format+"\n", args...)
	}
	jobCfg := job.Config{
		Engine: env.Eng, Net: env.Net,
		Provider:   env.NewProvider(jr.kind, s.spec.Seed),
		Rails:      []int{0},
		Spec:       spec,
		Plan:       jr.planOpts,
		Rand:       sim.NewRand(s.spec.Seed),
		Context:    ctx,
		QPsPerConn: 8,
	}
	pipe := s.newPipeline(env, sinks, jr.online, logf)
	if pipe != nil {
		jobCfg.Sink = accl.Fanout(nil, pipe)
	}
	j, err := job.New(jobCfg)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintln(s.log, j.Plan())
	j.OnIteration(func(i int, d sim.Time) {
		fmt.Fprintf(s.log, "iteration %2d: %v\n", i, d)
	})
	var rep job.Report
	j.Run(jr.planIters, func(r job.Report) { rep = r })
	runErr := drainEngine(ctx, env.Eng)
	if pipe != nil {
		pipe.Stop()
	}
	if runErr != nil {
		return nil, "", runErr
	}
	fmt.Fprintf(s.log, "\n%d iterations under %v:\n", rep.Iters, jr.kind)
	fmt.Fprintf(s.log, "  avg iteration  %v (%.1f samples/s)\n", rep.AvgIter, rep.SamplesPerSec)
	fmt.Fprintf(s.log, "  compute        %v\n", rep.AvgCompute)
	fmt.Fprintf(s.log, "  pipeline bubble %v\n", rep.AvgBubble)
	fmt.Fprintf(s.log, "  exposed comm   %v (%.1f%% of the iteration)\n", rep.AvgExposed, rep.ExposedShare()*100)
	metrics := map[string]float64{
		"iterations":      float64(rep.Iters),
		"avg_iter_s":      rep.AvgIter.Seconds(),
		"samples_per_sec": rep.SamplesPerSec,
		"compute_s":       rep.AvgCompute.Seconds(),
		"bubble_s":        rep.AvgBubble.Seconds(),
		"exposed_s":       rep.AvgExposed.Seconds(),
		"exposed_share":   rep.ExposedShare(),
		"sim_events":      float64(env.Eng.Fired()),
	}
	if pipe != nil {
		metrics["telemetry_records"] = float64(pipe.Records())
		metrics["telemetry_dropped"] = float64(pipe.Dropped())
	}
	summary := fmt.Sprintf("%v: avg iteration %v (%.1f samples/s), exposed comm %.1f%%",
		jr.plan, rep.AvgIter, rep.SamplesPerSec, rep.ExposedShare()*100)
	return metrics, summary, nil
}

// runEngineTo drives the engine to the deadline exactly like
// Engine.RunUntil, but checks ctx between event instants so a server can
// cancel a runaway session. Chunking by instant cannot change results:
// the engine fires the identical event sequence either way.
func runEngineTo(ctx context.Context, eng *sim.Engine, deadline sim.Time) error {
	for i := 0; ; i++ {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		next := eng.NextEventAt()
		if next > deadline {
			break
		}
		eng.RunUntil(next)
	}
	eng.RunUntil(deadline) // advance the clock to exactly the deadline
	return ctx.Err()
}

// drainEngine runs the queue dry like Engine.Run, checking ctx between
// event instants.
func drainEngine(ctx context.Context, eng *sim.Engine) error {
	for i := 0; ; i++ {
		if i&0xff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		next := eng.NextEventAt()
		if next == sim.MaxTime {
			return ctx.Err()
		}
		eng.RunUntil(next)
	}
}
