// Arrival traces: the replayable description of a multi-tenant workload.
// A trace is a time-ordered list of job arrivals (when, how many nodes,
// which model, how long the tenant keeps them); the engine in tenancy.go
// replays one against a shared fabric. Traces round-trip through JSON so a
// production arrival log can be replayed in simulation, and GenTrace
// derives one from a seeded Poisson arrival process so sweeps can
// synthesize load without hand-writing events.
package tenancy

import (
	"encoding/json"
	"fmt"
	"sort"

	"c4/internal/plan"
	"c4/internal/sim"
	"c4/internal/workload"
)

// TraceEvent is one job arrival.
type TraceEvent struct {
	// AtS is the arrival time in seconds of virtual time, at most
	// sim.MaxSpanSeconds.
	AtS float64 `json:"at_s"`
	// Name labels the job in reports; defaults to "job<i>" when empty.
	Name string `json:"name,omitempty"`
	// Nodes is the job's size in compute nodes (8 GPUs each, TP8).
	Nodes int `json:"nodes"`
	// Model is a workload model short name ("gpt22b", "llama7b", ...);
	// empty defaults to gpt22b.
	Model string `json:"model,omitempty"`
	// DurationS is how long the tenant holds its nodes, in seconds (at
	// most sim.MaxSpanSeconds); the job departs (finishing its in-flight
	// iteration) when it elapses.
	DurationS float64 `json:"duration_s"`
	// ComputeMS is the per-micro-batch compute time in milliseconds;
	// zero defaults to 200 ms. Smaller values make the job more
	// communication-bound and therefore more collision-sensitive. One
	// iteration's compute, (GA+PP) micro-batch times, may not exceed
	// sim.MaxSpanSeconds.
	ComputeMS float64 `json:"compute_ms,omitempty"`
	// PP is the job's pipeline-parallel depth (must divide Nodes); 0 or 1
	// means pure data parallelism. Pipeline tenants put stage-to-stage
	// activation traffic on the shared fabric in addition to their DP
	// gradient sync — the mixed PP+DP load of the plan/* scenarios.
	PP int `json:"pp,omitempty"`
	// GA is the gradient-accumulation depth; 0 or 1 means one micro-batch
	// per optimizer step. GA>1 compiles to the full 1F1B schedule. At
	// most plan.MaxGA.
	GA int `json:"ga,omitempty"`
}

const defaultComputeMS = 200

// Spec materializes the workload the event describes on concrete nodes.
func (ev TraceEvent) Spec(nodes []int) workload.JobSpec {
	model := workload.GPT22B
	if ev.Model != "" {
		if m, ok := workload.ModelByName(ev.Model); ok {
			model = m
		}
	}
	ms := ev.ComputeMS
	if ms <= 0 {
		ms = defaultComputeMS
	}
	spec := workload.TenantSpec(ev.Name, model, nodes, sim.FromSeconds(ms/1e3))
	if ev.PP > 1 {
		par := workload.Parallelism{TP: 8, PP: ev.PP, DP: len(nodes) / ev.PP, GA: ev.GA}
		spec.Par = par.Normalize()
	} else if ev.GA > 1 {
		spec.Par.GA = ev.GA
	}
	return spec
}

// Trace is a replayable arrival schedule.
type Trace struct {
	Events []TraceEvent `json:"events"`
}

// Validate checks every event and reports the first problem.
func (t Trace) Validate() error {
	for i, ev := range t.Events {
		// One iteration's nominal compute: GA micro-batches plus the
		// pipeline fill.
		iterS := ev.ComputeMS / 1e3 * (float64(max(ev.GA, 1)) + float64(max(ev.PP, 1)))
		switch {
		case !sim.ValidSpan(ev.AtS):
			return fmt.Errorf("tenancy: event %d arrives at %v s, want 0 to %g s", i, ev.AtS, sim.MaxSpanSeconds)
		case ev.Nodes <= 0:
			return fmt.Errorf("tenancy: event %d (%s) requests %d nodes", i, ev.Name, ev.Nodes)
		case ev.DurationS <= 0 || !sim.ValidSpan(ev.DurationS):
			return fmt.Errorf("tenancy: event %d (%s) has duration %v s, want above 0 up to %g s",
				i, ev.Name, ev.DurationS, sim.MaxSpanSeconds)
		case !sim.ValidSpan(iterS):
			return fmt.Errorf("tenancy: event %d (%s) has compute %v ms per micro-batch, want 0 up to %g s per iteration",
				i, ev.Name, ev.ComputeMS, sim.MaxSpanSeconds)
		case ev.PP < 0 || ev.GA < 0:
			return fmt.Errorf("tenancy: event %d (%s) has negative pp/ga", i, ev.Name)
		case ev.GA > plan.MaxGA:
			return fmt.Errorf("tenancy: event %d (%s) has ga %d, more than %d", i, ev.Name, ev.GA, plan.MaxGA)
		case ev.PP > 1 && ev.Nodes%ev.PP != 0:
			return fmt.Errorf("tenancy: event %d (%s): pp %d does not divide %d nodes",
				i, ev.Name, ev.PP, ev.Nodes)
		}
		if ev.Model != "" {
			if _, ok := workload.ModelByName(ev.Model); !ok {
				return fmt.Errorf("tenancy: event %d (%s) names unknown model %q", i, ev.Name, ev.Model)
			}
		}
	}
	return nil
}

// normalized returns the trace sorted by arrival time (stable, so equal
// instants keep file order) with empty names filled in.
func (t Trace) normalized() Trace {
	out := Trace{Events: append([]TraceEvent(nil), t.Events...)}
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].AtS < out.Events[j].AtS })
	for i := range out.Events {
		if out.Events[i].Name == "" {
			out.Events[i].Name = fmt.Sprintf("job%d", i)
		}
	}
	return out
}

// ParseTrace decodes and validates a JSON trace.
func ParseTrace(data []byte) (Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return Trace{}, fmt.Errorf("tenancy: bad trace JSON: %w", err)
	}
	if len(t.Events) == 0 {
		return Trace{}, fmt.Errorf("tenancy: trace has no events")
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

// JSON renders the trace in its canonical indented form.
func (t Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// ArrivalConfig parameterizes the synthetic Poisson workload generator.
type ArrivalConfig struct {
	// Window is the span over which arrivals are generated.
	Window sim.Time
	// MeanInterarrival is the Poisson process's mean gap between jobs.
	MeanInterarrival sim.Time
	// MeanDuration is the mean of the exponential job-duration draw;
	// durations are clamped to at least MinDuration.
	MeanDuration sim.Time
	// MinDuration floors the duration draw (default 10 s) so every job
	// lives long enough to complete iterations.
	MinDuration sim.Time
	// Sizes are the candidate node counts, drawn uniformly.
	Sizes []int
	// MaxJobs caps the trace length (0 = unlimited within Window).
	MaxJobs int
	// ComputeMS is the per-micro-batch compute time handed to every job.
	ComputeMS float64
}

// GenTrace draws a trace from the arrival process. Equal seeds yield
// byte-identical traces, so a generated workload is as replayable as a
// hand-written one.
func GenTrace(cfg ArrivalConfig, seed int64) Trace {
	r := sim.NewRand(seed)
	if cfg.Window <= 0 {
		return Trace{}
	}
	// A non-positive mean would make Exp draw 0 forever: the arrival clock
	// would never advance past Window and the loop would never terminate.
	if cfg.MeanInterarrival <= 0 {
		cfg.MeanInterarrival = 5 * sim.Second
	}
	minDur := cfg.MinDuration
	if minDur <= 0 {
		minDur = 10 * sim.Second
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = []int{2, 4}
	}
	var t Trace
	at := sim.Time(0)
	for {
		at += r.ExpTime(cfg.MeanInterarrival)
		if at > cfg.Window {
			break
		}
		if cfg.MaxJobs > 0 && len(t.Events) >= cfg.MaxJobs {
			break
		}
		dur := r.ExpTime(cfg.MeanDuration)
		if dur < minDur {
			dur = minDur
		}
		t.Events = append(t.Events, TraceEvent{
			AtS:       at.Seconds(),
			Nodes:     sizes[r.Intn(len(sizes))],
			DurationS: dur.Seconds(),
			ComputeMS: cfg.ComputeMS,
		})
	}
	return t
}
