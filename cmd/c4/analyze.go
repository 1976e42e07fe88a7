package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/harness"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/telemetry"
)

// runAnalyze is `c4 analyze`, the offline C4 Analyzer of the paper's
// Fig 5: it reads a telemetry JSONL stream, the archive that `c4 sim
// -telemetry-out`, `c4 serve` and `c4 analyze -demo` write, and replays
// its msg records (the transport time series the C4a agents archive)
// through the same delay-matrix localizer the online master uses, printing
// per-window findings — the post-mortem workflow for "why was this job
// slow last night?".
//
//	c4 analyze run.jsonl                 # analyze an archived stream
//	c4 analyze -demo -dir /tmp/c4s       # run the registered analyzer-demo
//	                                     # scenario (an injected slow NIC),
//	                                     # archive its stream, and analyze
func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("analyze", stderr)
	var (
		demo   = fs.Bool("demo", false, "archive the analyzer-demo scenario's stream under -dir, then analyze it")
		dir    = fs.String("dir", ".", "directory for the demo stream")
		window = fs.Duration("window", 10e9, "analysis window")
		kappa  = fs.Float64("kappa", 2, "slowdown multiple considered anomalous")
		frac   = fs.Float64("frac", 0.6, "row/column fraction for NIC-side verdicts")
		seed   = fs.Int64("seed", 1, "simulation seed (demo mode)")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	var bad string
	switch {
	case *window <= 0:
		bad = fmt.Sprintf("-window %v: want a positive window", *window)
	case !(*kappa > 1):
		bad = fmt.Sprintf("-kappa %v: want a slowdown multiple above 1", *kappa)
	case !(*frac > 0 && *frac <= 1):
		bad = fmt.Sprintf("-frac %v: want a fraction in (0, 1]", *frac)
	}
	if bad != "" {
		fmt.Fprintf(stderr, "c4 analyze: %s\n", bad)
		return 2
	}

	var path string
	switch {
	case *demo:
		p, err := generateDemo(*dir, *seed, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "c4 analyze: %v\n", err)
			return 1
		}
		path = p
		fmt.Fprintf(stdout, "demo stream written to %s\n", path)
	case fs.NArg() == 1:
		path = fs.Arg(0)
	default:
		fmt.Fprintln(stderr, "usage: c4 analyze [-demo -dir DIR] [run.jsonl]")
		return 2
	}

	records, err := readFile(path, telemetry.ReadStream)
	if err != nil {
		fmt.Fprintf(stderr, "c4 analyze: %v\n", err)
		return 1
	}
	var msgs []accl.MsgEvent
	for _, r := range records {
		if r.Kind == telemetry.KindMsg {
			msgs = append(msgs, *r.Msg)
		}
	}
	fmt.Fprintf(stdout, "loaded %d transport records from %s\n", len(msgs), path)

	findings := c4d.AnalyzeOffline(msgs, sim.FromDuration(*window), *kappa, *frac)
	if len(findings) == 0 {
		fmt.Fprintln(stdout, "no anomalies found")
		return 0
	}
	for _, of := range findings {
		fmt.Fprintln(stdout, of)
	}
	return 0
}

// generateDemo executes the registered analyzer-demo scenario through the
// runner and archives its recorder's contents as one telemetry stream in
// event-time order, returning the stream's path.
func generateDemo(dir string, seed int64, stderr io.Writer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	s, ok := scenario.Get("analyzer-demo")
	if !ok {
		return "", fmt.Errorf("analyzer-demo scenario not registered")
	}
	rep := scenario.RunOne(context.Background(), s, seed)
	if rep.Err != nil {
		return "", rep.Err
	}
	if rep.ShapeErr != nil {
		// The stream is still valid data, but the demo no longer
		// demonstrates the injected fault — say so rather than archiving
		// a broken demonstration silently.
		fmt.Fprintf(stderr, "c4 analyze: warning: demo scenario failed its shape check: %v\n", rep.ShapeErr)
	}
	rec := rep.Result.(harness.AnalyzerDemoResult).Recorder
	records := make([]telemetry.Record, 0, len(rec.Comms)+len(rec.Collectives)+len(rec.Messages)+len(rec.Waits))
	// The demo opens its communicator before the engine runs, at 0 s.
	for _, ci := range rec.Comms {
		records = append(records, telemetry.Record{Node: -1, Kind: telemetry.KindCommCreate, Comm: ci.Comm, Nodes: ci.Nodes})
	}
	for _, ev := range rec.Collectives {
		records = append(records, telemetry.RecordOfColl(ev))
	}
	for _, ev := range rec.Messages {
		records = append(records, telemetry.RecordOfMsg(ev))
	}
	for _, ev := range rec.Waits {
		records = append(records, telemetry.RecordOfWait(ev))
	}
	path := filepath.Join(dir, "analyzer-demo.jsonl")
	err := writeFile(path, nil, func(w io.Writer) error {
		sw := telemetry.NewStreamWriter(w)
		for _, r := range telemetry.MergeByTime(records) {
			sw.Observe(r)
		}
		return sw.Flush()
	})
	return path, err
}
