package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"c4/internal/c4d"
	"c4/internal/harness"
	"c4/internal/scenario"
	"c4/internal/sim"
)

// runAnalyze is `c4 analyze`, the offline C4 Analyzer of the paper's
// Fig 5: it reads the conn-stats.csv transport time series that the C4a
// agents archive and replays it through the same delay-matrix localizer
// the online master uses, printing per-window findings — the post-mortem
// workflow for "why was this job slow last night?".
//
//	c4 analyze conn-stats.csv            # analyze an archived stats file
//	c4 analyze -demo -dir /tmp/stats     # run the registered analyzer-demo
//	                                     # scenario (an injected slow NIC),
//	                                     # archive its stats, and analyze
func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("analyze", stderr)
	var (
		demo   = fs.Bool("demo", false, "generate demo stats from the analyzer-demo scenario, then analyze")
		dir    = fs.String("dir", ".", "directory for demo stats files")
		window = fs.Duration("window", 10e9, "analysis window")
		kappa  = fs.Float64("kappa", 2, "slowdown multiple considered anomalous")
		frac   = fs.Float64("frac", 0.6, "row/column fraction for NIC-side verdicts")
		seed   = fs.Int64("seed", 1, "simulation seed (demo mode)")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
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
		fmt.Fprintf(stdout, "demo stats written under %s\n", *dir)
	case fs.NArg() == 1:
		path = fs.Arg(0)
	default:
		fmt.Fprintln(stderr, "usage: c4 analyze [-demo -dir DIR] [conn-stats.csv]")
		return 2
	}

	msgs, err := readFile(path, c4d.ReadConnStats)
	if err != nil {
		fmt.Fprintf(stderr, "c4 analyze: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "loaded %d transport records from %s\n", len(msgs), path)

	findings := c4d.AnalyzeOffline(msgs, sim.FromDuration(*window), *kappa, *frac)
	if len(findings) == 0 {
		fmt.Fprintln(stdout, "no anomalies found")
		return 0
	}
	for _, of := range findings {
		f := of.Finding
		switch f.Scope {
		case c4d.ScopeNodeTx:
			fmt.Fprintf(stdout, "[%v..%v] comm %d: node %d Tx slow (x%.1f) — whole matrix row degraded\n",
				of.WindowStart, of.WindowEnd, of.Comm, f.Src, f.Slowdown)
		case c4d.ScopeNodeRx:
			fmt.Fprintf(stdout, "[%v..%v] comm %d: node %d Rx slow (x%.1f) — whole matrix column degraded\n",
				of.WindowStart, of.WindowEnd, of.Comm, f.Dst, f.Slowdown)
		default:
			fmt.Fprintf(stdout, "[%v..%v] comm %d: connection n%d->n%d slow (x%.1f)\n",
				of.WindowStart, of.WindowEnd, of.Comm, f.Src, f.Dst, f.Slowdown)
		}
	}
	return 0
}

// generateDemo executes the registered analyzer-demo scenario through the
// runner and archives all four stats files from its recorder, returning
// the conn-stats path.
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
		// The stats files are still valid data, but the demo no longer
		// demonstrates the injected fault — say so rather than archiving
		// a broken demonstration silently.
		fmt.Fprintf(stderr, "c4 analyze: warning: demo scenario failed its shape check: %v\n", rep.ShapeErr)
	}
	rec := rep.Result.(harness.AnalyzerDemoResult).Recorder
	files := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"comm-stats.csv", func(w io.Writer) error { return c4d.WriteCommStats(w, rec.Comms) }},
		{"coll-stats.csv", func(w io.Writer) error { return c4d.WriteCollStats(w, rec.Collectives) }},
		{"rank-stats.csv", func(w io.Writer) error { return c4d.WriteRankStats(w, rec.Waits) }},
		{"conn-stats.csv", func(w io.Writer) error { return c4d.WriteConnStats(w, rec.Messages) }},
	}
	for _, f := range files {
		if err := writeFile(filepath.Join(dir, f.name), nil, f.write); err != nil {
			return "", err
		}
	}
	return filepath.Join(dir, "conn-stats.csv"), nil
}
