package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"c4"
	"c4/internal/workload"
)

// runSim is `c4 sim`: an end-to-end training scenario on the simulated
// cluster, a distributed job under C4D monitoring and C4P traffic
// engineering with an injectable fault, driving the full detect ->
// isolate -> restart loop and printing the timeline. -plan makes the job
// a compiled 3D-parallelism plan under the same loop (every other job
// flag still applies), and -tenancy-trace replays a multi-tenant arrival
// trace.
//
// Every mode compiles its flags into a c4.SessionSpec and runs it through
// the same c4.Session lifecycle `c4 serve` serves, so a CLI run and a
// served session with the same spec and seed are byte-identical.
//
//	c4 sim -job gpt22b -fault crash -fault-at 30s
//	c4 sim -job llama7b -fault straggler -horizon 10m
//	c4 sim -job gpt22b -fault nic -no-c4d   # watch the job hang without C4D
//	c4 sim -tenancy-trace trace.json -tenancy-policy spread -provider baseline
//	c4 sim -plan tp8/pp4/dp2/ga8            # compile + run a 3D-parallelism plan
//	c4 sim -plan tp8/pp2/dp8/ga4 -job gpt175b -plan-bucket-mib 256 -plan-overlap
//	c4 sim -plan tp8/pp2/dp4/ga4 -plan-iters 100 -fault crash -victim 9
func runSim(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("sim", stderr)
	var (
		jobName   = fs.String("job", "gpt22b", "workload model: "+strings.Join(workload.ModelNames(), " | "))
		provider  = fs.String("provider", "c4p", "path control: baseline | c4p | c4p-dynamic")
		fault     = fs.String("fault", "none", "inject: none | crash | straggler | nic")
		faultAt   = fs.Duration("fault-at", 30*time.Second, "fault injection time")
		victim    = fs.Int("victim", 6, "faulty node (one of the job's nodes)")
		horizon   = fs.Duration("horizon", 15*time.Minute, "virtual time to simulate")
		noC4D     = fs.Bool("no-c4d", false, "disable C4D monitoring and recovery")
		placement = fs.String("placement", "spread", "node placement: topo (pack leaf groups) | spread (maximize spine traffic)")
		seed      = fs.Int64("seed", 1, "simulation seed")
		telemOut  = fs.String("telemetry-out", "", "write the run's telemetry stream as JSONL to this file (replay offline with c4 replay)")
		traceOut  = fs.String("trace-out", "", "write the run's causal trace as Chrome trace-event JSON to this file (open in Perfetto, summarize with c4 trace)")
		online    = fs.Bool("online", false, "attach the streaming online detector and log its detections live")
		tenTrace  = fs.String("tenancy-trace", "", "replay a multi-tenant JSON arrival trace on a shared fabric (see README for the format)")
		tenPolicy = fs.String("tenancy-policy", "packed", "with -tenancy-trace: placement policy: packed | spread | random")
		tenSpines = fs.Int("tenancy-spines", 8, "with -tenancy-trace: spine switches per rail (8 = 1:1, 4 = 2:1)")
		planStr   = fs.String("plan", "", "compile and run a 3D-parallelism plan for -job, e.g. 'tp8/pp4/dp2/ga8' (PP*DP nodes placed by -placement; TP stays intra-node)")
		planBkt   = fs.Float64("plan-bucket-mib", 0, "with -plan: DP gradient bucket size in MiB (0 = one bucket)")
		planOvl   = fs.Bool("plan-overlap", false, "with -plan: launch buckets inside the final backward pass (comm/compute overlap)")
		planIters = fs.Int("plan-iters", 5, "with -plan: iterations to run")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	if *tenTrace != "" {
		data, err := readFile(*tenTrace, io.ReadAll)
		if err != nil {
			fmt.Fprintf(stderr, "c4 sim: %v\n", err)
			return 2
		}
		return runSession(c4.SessionSpec{
			Seed: *seed,
			Tenancy: &c4.SessionTenancy{
				Trace:    data,
				Policy:   *tenPolicy,
				Provider: *provider,
				Spines:   *tenSpines,
				HorizonS: horizon.Seconds(),
			},
		}, "", "", stdout, stderr)
	}
	return runSession(c4.SessionSpec{
		Seed: *seed,
		Job: &c4.SessionJob{
			Model:         *jobName,
			Provider:      *provider,
			Placement:     *placement,
			Fault:         *fault,
			FaultAtS:      faultAt.Seconds(),
			Victim:        victim,
			HorizonS:      horizon.Seconds(),
			NoC4D:         *noC4D,
			Online:        *online,
			Plan:          *planStr,
			PlanBucketMiB: *planBkt,
			PlanOverlap:   *planOvl,
			PlanIters:     *planIters,
		},
	}, *telemOut, *traceOut, stdout, stderr)
}

// runSession executes one session spec, optionally exporting its
// telemetry stream as JSONL and its causal trace as Chrome JSON. Spec
// errors exit 2 (bad flags), runtime errors exit 1.
func runSession(spec c4.SessionSpec, telemOut, traceOut string, stdout, stderr io.Writer) int {
	sess, err := c4.NewSession(c4.SessionOptions{Spec: spec, Log: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "c4 sim: %v\n", err)
		return 2
	}
	defer sess.Close()
	var streamW *c4.TelemetryStreamWriter
	var streamFile *os.File
	if telemOut != "" {
		f, err := os.Create(telemOut)
		if err != nil {
			fmt.Fprintf(stderr, "c4 sim: %v\n", err)
			return 1
		}
		defer f.Close()
		streamFile = f
		streamW = c4.NewTelemetryStreamWriter(f)
		sess.AttachSink(streamW)
	}
	var tracer *c4.Tracer
	if traceOut != "" {
		tracer = c4.NewTracer()
		sess.AttachTracer(tracer)
	}
	if err := sess.Run(context.Background()); err != nil {
		fmt.Fprintf(stderr, "c4 sim: %v\n", err)
		return 1
	}
	if streamW != nil {
		err := streamW.Flush()
		if err == nil {
			err = streamFile.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "c4 sim: writing telemetry stream: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "telemetry: %d records written to %s\n", streamW.Written(), telemOut)
	}
	if tracer != nil {
		err := writeFile(traceOut, nil, func(w io.Writer) error { return c4.WriteTrace(w, tracer.Spans()) })
		if err != nil {
			fmt.Fprintf(stderr, "c4 sim: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tracer.Spans()), traceOut)
	}
	return 0
}
