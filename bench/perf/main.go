// Command perf is the repository's benchmark. It measures what
// reproducing the paper costs on the host: the host time, throughput and
// memory of five closed-loop workloads that drive the reproduction only
// through its public entry points, with every output checked.
//
//	bash bench/perf/run.sh --workload paper --seed 1
//	bash bench/perf/run.sh --workload serve --seed 2 --trace 1
//	bash bench/perf/run.sh --workload all --seed 3 --out .bench_build/runs/A
//	bash bench/perf/run.sh compare .bench_build/runs/A .bench_build/runs/B
//
// An untraced run prints the end-to-end metrics; a traced run (--trace 1)
// repeats the workload untraced and then traced, and prints the per-layer
// metrics: CPU self time by package from a CPU profile the benchmark
// records, host-time spans around its calls into each layer (written as a
// Chrome trace), and work counters. The last line of the output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	_ "c4/internal/harness" // registers every scenario and campaign family
	"c4/internal/trace"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceDir string
	baseline string
	size     sizes
}

// sizes are the workloads' input sizes; the self-test shrinks them.
type sizes struct {
	paper, scale         []string
	paperWarm, scaleWarm string // the scenario each pass workload warms up with
	trials, shards       int    // the campaign: trials, run as this many serial shards
	clients              int    // concurrent serve clients
	replayHorizonS       float64
	// A run sets up at least setups times and for at least setupTime in
	// all; setup_s is the median. Short set-ups repeat more often, so the
	// median holds against the shared host's bursts of lost time.
	setups    int
	setupTime time.Duration
}

// defaultSeconds is how long a run measures by default; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

var defaultSizes = sizes{
	paper: paperScenarios, scale: scaleScenarios,
	paperWarm: "fig9", scaleWarm: "netsim/scale-parallel",
	trials: 96, shards: 12,
	clients:        2,
	replayHorizonS: 900,
	setups:         5,
	setupTime:      time.Second,
}

// warmSeed is the seed of the pass and campaign workloads' warm-up unit. It
// is fixed, so their set-up time does not follow the seed.
const warmSeed = 1

// bench is one set-up workload, ready to measure.
type bench interface {
	// run drives units closed-loop until the deadline has passed and at
	// least the workload's minimum is done, recording into rec.
	run(ctx context.Context, rec *recorder, deadline time.Time)
	// layerMetrics returns the workload's own per-layer metrics from a
	// traced window.
	layerMetrics(rec *recorder) map[string]float64
	// detail returns further numbers for the human-readable report.
	detail(rec *recorder) map[string]float64
	sizes() map[string]any
	// outputSHA hashes the deterministic outputs: equal seeds, equal hash.
	outputSHA() string
	close() error
}

type workload struct {
	name, why string
	setup     func(context.Context, config) (bench, error)
}

var workloads = []workload{
	{"paper", "every paper table, figure, ablation and pipeline serially: the per-flow netsim kernel, the engine heap and the GC dominate",
		func(ctx context.Context, c config) (bench, error) {
			return newPassBench(ctx, c, c.size.paper, c.size.paperWarm)
		}},
	{"scale", "256-node netsim scenarios with 8-128 flows per link chain: the flow-class and parallel-settle kernel paper bypasses",
		func(ctx context.Context, c config) (bench, error) {
			return newPassBench(ctx, c, c.size.scale, c.size.scaleWarm)
		}},
	{"campaign", "a 96-trial mixed-fault campaign as serial shards plus merge: per-trial set-up of topology, cluster and detectors",
		newCampaignBench},
	{"serve", "two closed-loop HTTP clients running whole sessions on the daemon: telemetry encoding, SSE and the session table",
		newServeBench},
	{"replay", "decode a recorded 84k-record telemetry stream and replay it through the online detector: no netsim at all",
		newReplayBench},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{size: defaultSizes}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+strings.Join(names, " | ")+" | all")
	fs.Int64Var(&c.seed, "seed", 1, "input seed: equal seeds give equal inputs and outputs")
	seconds := fs.Float64("seconds", defaultSeconds, "host seconds a run measures (a traced run splits them between its untraced and traced halves)")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics, a CPU profile and a Chrome trace of host-time spans")
	fs.StringVar(&c.traceDir, "trace-dir", filepath.Join(".bench_build", "perf-trace"), "where a traced run writes its Chrome trace and CPU profile")
	fs.StringVar(&c.baseline, "baseline", filepath.Join("bench", "baseline.json"), "behaviour baseline the pass workloads must match at its seed")
	out := fs.String("out", "", "with -workload all: also save each workload's output as a file in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	c.window = time.Duration(*seconds * float64(time.Second))
	c.trace = *traced == 1
	if c.workload == "all" {
		return runAll(c, *out, stdout, stderr)
	}
	if _, ok := lookup(c.workload); !ok {
		fmt.Fprintf(stderr, "perf: unknown workload %q (want %s | all)\n", c.workload, strings.Join(names, " | "))
		return 2
	}
	rep, err := measure(context.Background(), c)
	if err != nil {
		fmt.Fprintf(stderr, "perf: %s: %v\n", c.workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	info     map[string]any
	result   result
	detail   map[string]float64
	failures []string
}

// measure sets the workload up repeatedly, keeps the last set-up, and
// measures it: untraced for the whole window, or, for a traced run,
// untraced for half and traced for half.
func measure(ctx context.Context, c config) (rep *report, err error) {
	w, ok := lookup(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	var b bench
	defer func() {
		if b != nil {
			err = errors.Join(err, b.close())
		}
	}()
	var setupS []float64
	var setupTotal time.Duration
	// srec times the calibration kernel before each set-up, so the host's
	// speed while setting up, not through the window after it, scales the
	// set-up time.
	srec := newRecorder(false)
	for len(setupS) < c.size.setups || setupTotal < c.size.setupTime {
		// Each set-up starts from a collected heap, as in a fresh process,
		// so the garbage of the one before does not decide when its
		// collections fall.
		runtime.GC()
		srec.calibrateNow()
		t0 := time.Now()
		nb, err := w.setup(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setupTotal += d
		setupS = append(setupS, d.Seconds())
		old := b
		b = nb
		if old != nil {
			if err := old.close(); err != nil {
				return nil, fmt.Errorf("closing a set-up: %w", err)
			}
		}
	}
	if b == nil {
		return nil, fmt.Errorf("no set-up to measure")
	}

	window := c.window
	if c.trace {
		window /= 2
	}
	rec := newRecorder(false)
	elapsed := runWindow(ctx, b, rec, window)
	rep = &report{
		info: map[string]any{
			"workload": c.workload, "seed": c.seed, "trace": c.trace,
			"seconds": c.window.Seconds(), "git_sha": gitSHA(), "host": hostInfo(),
			"sizes": b.sizes(), "setup_s": setupS, "measured_s": elapsed.Seconds(),
			"raw_unit_ms": rec.unitMs(), "calibration_ms": median(rec.calMs),
			"setup_calibration_ms": median(srec.calMs),
		},
		result:   result{Attempted: rec.attempted, Failed: rec.failed, Metrics: map[string]metricValue{}},
		detail:   b.detail(rec),
		failures: rec.failures,
	}
	set := func(name string, v float64) {
		rep.result.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	if !c.trace {
		set("setup_s", median(setupS)*srec.speed())
		set("unit_ms", rec.normUnitMs())
		set("work_per_s", 1000*per(rec.perUnit(func(u unitSample) float64 { return u.items }), rec.normUnitMs()))
		set("alloc_mb", rec.perUnit(func(u unitSample) float64 { return u.bytes })/1e6)
	} else {
		trec, metrics, err := measureTraced(ctx, c, b, window, rec)
		if err != nil {
			return nil, err
		}
		for name, v := range metrics {
			set(name, v)
		}
		rep.result.Attempted += trec.attempted
		rep.result.Failed += trec.failed
		rep.failures = append(rep.failures, trec.failures...)
		for k, v := range b.detail(trec) {
			rep.detail[k] = v
		}
		for _, row := range trace.Profile(trec.traceSpans()) {
			rep.detail["span."+row.Kind+".self_ms"] = float64(row.Self.Duration()) / 1e6
		}
	}
	rep.info["output_sha"] = b.outputSHA()
	rep.result.Correct = rep.result.Failed == 0 && rep.result.Attempted > 0
	return rep, nil
}

// runWindow measures one window: it runs the workload closed-loop until
// the deadline, timing the calibration kernel before, between units and
// after, and returns the window's host time.
func runWindow(ctx context.Context, b bench, rec *recorder, d time.Duration) time.Duration {
	rec.tick()
	t0 := time.Now()
	b.run(ctx, rec, t0.Add(d))
	elapsed := time.Since(t0)
	rec.tick()
	return elapsed
}

// measureTraced runs the traced half of a traced run: host-time spans and
// a CPU profile the benchmark itself records. It writes both next to each
// other in the trace directory and returns the per-layer metrics, with the
// traced window's unit time against the untraced one's as the tracing
// overhead.
func measureTraced(ctx context.Context, c config, b bench, window time.Duration, untraced *recorder) (*recorder, map[string]float64, error) {
	rec := newRecorder(true)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	before := readGC()
	elapsed := runWindow(ctx, b, rec, window)
	after := readGC()
	pprof.StopCPUProfile()

	m := map[string]float64{}
	for _, d := range perLayer() {
		m[d.Name] = 0
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for l, v := range shares {
		m[l+".self_pct"] = v
	}
	for k, v := range b.layerMetrics(rec) {
		m[k] = v
	}
	var calMs float64
	for _, ms := range rec.calMs {
		calMs += ms
	}
	units := per(float64(elapsed.Milliseconds())-calMs, rec.unitMs())
	m["go.allocs"] = rec.perUnit(func(u unitSample) float64 { return u.objects })
	m["go.gc_cycles"] = per(after.cycles-before.cycles, units)
	m["go.gc_cpu_pct"] = pct(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["go.peak_rss_mb"] = peakRSSMB()
	m["traced_unit_ms"] = rec.normUnitMs()
	m["trace_overhead_pct"] = pct(rec.normUnitMs()-untraced.normUnitMs(), untraced.normUnitMs())

	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(c.traceDir, fmt.Sprintf("%s-s%d", c.workload, c.seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := writeChrome(base+".trace.json", rec.traceSpans()); err != nil {
		return nil, nil, err
	}
	return rec, m, nil
}

func writeChrome(path string, spans []*trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// write prints the human-readable report, the info line and, last, the
// result line.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "perf %s seed=%v trace=%v: %d attempted, %d failed\n",
		r.info["workload"], r.info["seed"], r.info["trace"], r.result.Attempted, r.result.Failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, k := range keys(r.result.Metrics) {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, r.result.Metrics[k].Value, r.result.Metrics[k].Unit)
	}
	for _, k := range keys(r.detail) {
		fmt.Fprintf(w, "  detail %-33s %14.4f\n", k, r.detail[k])
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"info": r.info}); err != nil {
		return err
	}
	return enc.Encode(r.result)
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runAll runs every workload in turn, each in a fresh child process so
// set-up time and memory are per workload.
func runAll(c config, outDir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 1
		}
	}
	traced := 0
	if c.trace {
		traced = 1
	}
	code := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(c.seed),
			"-seconds", fmt.Sprint(c.window.Seconds()), "-trace", fmt.Sprint(traced),
			"-trace-dir", c.traceDir, "-baseline", c.baseline)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
			code = 1
		} else if runs, err := parseRuns(bytes.NewReader(buf.Bytes())); err != nil || len(runs) != 1 || !runs[0].result.Correct {
			fmt.Fprintf(stderr, "perf: %s: run not correct\n", w.name)
			code = 1
		}
		if outDir != "" {
			name := fmt.Sprintf("%s-s%d-t%d.out", w.name, c.seed, traced)
			if err := os.WriteFile(filepath.Join(outDir, name), buf.Bytes(), 0o644); err != nil {
				fmt.Fprintf(stderr, "perf: %v\n", err)
				code = 1
			}
		}
	}
	return code
}
