package main

import (
	"fmt"
	"io"

	"c4/internal/metrics"
)

// runBenchdiff is `c4 benchdiff`, the bench-regression guard: it compares
// a freshly generated `c4 bench -json` report against the committed
// baseline and fails (exit 1) when any tracked scenario metric or event
// count drifts beyond tolerance. The simulator is seed-deterministic, so
// drift means a behavioral change — regenerate the baseline (`make
// bench-baseline`) when the change is intended.
//
//	c4 benchdiff [-tol 0.05] bench/baseline.json current.json
func runBenchdiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("benchdiff", stderr)
	tol := fs.Float64("tol", 0.05, "allowed relative drift per metric (0.05 = 5%)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: c4 benchdiff [-tol FRAC] baseline.json current.json")
		return 2
	}
	basePath, curPath := fs.Arg(0), fs.Arg(1)
	base, err := readFile(basePath, metrics.ReadBenchReport)
	if err != nil {
		fmt.Fprintf(stderr, "c4 benchdiff: %v\n", err)
		return 2
	}
	cur, err := readFile(curPath, metrics.ReadBenchReport)
	if err != nil {
		fmt.Fprintf(stderr, "c4 benchdiff: %v\n", err)
		return 2
	}
	diffs := metrics.DiffBenchReports(base, cur, *tol)
	if len(diffs) == 0 {
		fmt.Fprintf(stdout, "benchdiff: %d scenario(s) within %.0f%% of %s\n",
			len(base.Scenarios), *tol*100, basePath)
		return 0
	}
	fmt.Fprintf(stderr, "c4 benchdiff: %d regression(s) against %s:\n", len(diffs), basePath)
	for _, d := range diffs {
		fmt.Fprintf(stderr, "  %s\n", d)
	}
	fmt.Fprintln(stderr, "intended change? regenerate the baseline with `make bench-baseline`")
	return 1
}
