package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// runOutput is one benchmark run read back from its saved output.
type runOutput struct {
	info   runInfo
	result result
}

// runInfo is the part of a run's info line compare groups by.
type runInfo struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
}

// runCompare implements `perf compare A B`: for every workload and metric
// present in both directories of saved run outputs it prints each side's
// median and quartiles, how many same-seed pairs B won, and a verdict.
// It exits 1 when any end-to-end metric is worse or unresolved.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perf compare DIR_A DIR_B   (A is the parent, B the change)")
		return 2
	}
	a, err := loadRuns(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("no runs in %s", args[0])
	}
	var b []runOutput
	if err == nil {
		b, err = loadRuns(args[1])
	}
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("no runs in %s", args[1])
	}
	if err != nil {
		fmt.Fprintf(stderr, "perf compare: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tverdict")
	bad, rows := 0, 0
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
			pa, pb := pairValues(a, b, w.name, d.Name)
			va, vb := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows++
			wins := 0
			for i := range pa {
				if improves(d.Better, pa[i], pb[i]) {
					wins++
				}
			}
			v := verdict(va, vb, d, wins, len(pa))
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n", w.name, d.Name, d.Unit,
				summary(va), summary(vb), pct(median(vb)-median(va), median(va)), wins, len(pa), v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "perf compare: %v\n", err)
		return 2
	}
	if rows == 0 {
		fmt.Fprintln(stderr, "perf compare: the two directories share no workload and metric")
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// verdict applies the benchmark's rules to one metric. A regression is a
// median of B worse than A's by more than the bound; a gain needs B to win
// at least nine tenths of the same-seed pairs and the medians to differ by
// more than A's quartile spread. When either side spreads wider than the
// bound the result is unresolved, unless every run of B is better than
// every run of A. Per-layer metrics have no bound and get no verdict.
func verdict(a, b []float64, d metricDef, wins, pairs int) string {
	if d.Bound == 0 {
		return "-"
	}
	medA, medB := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	gain := medA - medB // how much better B is, in the metric's direction
	allBetter := sorted(b)[len(b)-1] < sorted(a)[0]
	if d.Better == "higher" {
		gain = -gain
		allBetter = sorted(b)[0] > sorted(a)[len(a)-1]
	}
	switch {
	case per(q3a-q1a, medA) > d.Bound || per(q3b-q1b, medB) > d.Bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case -gain > d.Bound*medA:
		return "worse"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain > q3a-q1a:
		return "better"
	}
	return "same"
}

func improves(better string, a, b float64) bool {
	if better == "higher" {
		return b > a
	}
	return b < a
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

func values(runs []runOutput, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.result.Metrics[metric]; ok && r.info.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairValues matches runs of A and B by seed, in file order within a seed.
func pairValues(a, b []runOutput, workload, metric string) (pa, pb []float64) {
	bySeed := func(runs []runOutput) map[int64][]float64 {
		m := map[int64][]float64{}
		for _, r := range runs {
			if v, ok := r.result.Metrics[metric]; ok && r.info.Workload == workload {
				m[r.info.Seed] = append(m[r.info.Seed], v.Value)
			}
		}
		return m
	}
	ma, mb := bySeed(a), bySeed(b)
	seeds := make([]int64, 0, len(ma))
	for s := range ma {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		n := min(len(ma[s]), len(mb[s]))
		pa, pb = append(pa, ma[s][:n]...), append(pb, mb[s][:n]...)
	}
	return pa, pb
}

// loadRuns reads every regular file of dir as saved benchmark output.
func loadRuns(dir string) ([]runOutput, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runOutput
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		rs, err := parseRuns(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

// parseRuns reads the runs in one output, which may hold several runs
// (the output of -workload all): each run's info line is followed by its
// result line.
func parseRuns(r io.Reader) ([]runOutput, error) {
	var runs []runOutput
	var cur *runInfo
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var probe struct {
			Info *runInfo `json:"info"`
			result
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return nil, err
		}
		switch {
		case probe.Info != nil:
			cur = probe.Info
		case probe.Metrics != nil && cur != nil:
			runs = append(runs, runOutput{info: *cur, result: probe.result})
			cur = nil
		}
	}
	return runs, sc.Err()
}
