package main

import (
	"fmt"
	"io"
	"sort"

	"c4/internal/sim"
	"c4/internal/trace"
)

// runTrace is `c4 trace`: it summarizes and compares causal traces
// recorded by `c4 sim -trace-out` (or any c4.Session with an attached
// tracer). It answers the two questions a trace exists for — "where did
// the simulated time go" and "what chain of spans determined the
// iteration time" — without leaving the terminal, and diffs two traces to
// attribute a goodput delta to named spans on the critical path.
//
//	c4 trace run.trace.json                 # profile + per-iteration critical paths
//	c4 trace -iter 3 run.trace.json         # critical-path detail for iteration 3
//	c4 trace -diff ecmp.json c4p.json       # what changed between two arms
//	c4 trace -check run.trace.json          # exit 0 iff the trace is well-formed
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace", stderr)
	var (
		diff  = fs.Bool("diff", false, "compare two traces: attribute the iteration-time delta to named critical-path spans")
		check = fs.Bool("check", false, "validate the trace (parses, has spans, critical path extracts) and exit")
		iter  = fs.Int("iter", -1, "iteration to detail (-1 = last finished)")
		top   = fs.Int("top", 8, "rows to print per table")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	want, use := 1, "[-iter N] [-top N] trace.json"
	switch {
	case *diff:
		want, use = 2, "-diff a.trace.json b.trace.json"
	case *check:
		use = "-check trace.json"
	}
	if fs.NArg() != want {
		fmt.Fprintf(stderr, "c4 trace: usage: c4 trace %s\n", use)
		return 2
	}
	traces := make([][]*trace.Span, want)
	for i, path := range fs.Args() {
		spans, err := readFile(path, trace.ParseChrome)
		if err != nil {
			fmt.Fprintf(stderr, "c4 trace: %v\n", err)
			return 2
		}
		traces[i] = spans
	}
	switch {
	case *diff:
		traceDiff(stdout, fs.Arg(0), fs.Arg(1), traces[0], traces[1], *top)
	case *check:
		return traceCheck(stdout, stderr, fs.Arg(0), traces[0])
	default:
		traceSummary(stdout, fs.Arg(0), traces[0], *iter, *top)
	}
	return 0
}

// roots returns the spans to extract critical paths from: the recorded
// iterations, or — for traces without an iteration layer — every
// top-level span.
func roots(spans []*trace.Span) []*trace.Span {
	if iters := trace.ByKind(spans, "iter"); len(iters) > 0 {
		return iters
	}
	var out []*trace.Span
	for _, s := range spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

// traceSummary prints the per-kind profile, one line per iteration naming
// the dominant critical-path contributor, and the full path breakdown of
// the selected iteration.
func traceSummary(stdout io.Writer, path string, spans []*trace.Span, iterSel, top int) {
	forest := trace.NewForest(spans)
	horizon := forest.Horizon()
	fmt.Fprintf(stdout, "%s: %d spans, horizon %v\n\n", path, len(spans), horizon)

	fmt.Fprintln(stdout, "where the simulated time went (self = not covered by children):")
	fmt.Fprintf(stdout, "  %-8s %6s %14s %14s\n", "kind", "count", "total", "self")
	for i, r := range forest.Profile() {
		if i >= top {
			break
		}
		fmt.Fprintf(stdout, "  %-8s %6d %14v %14v\n", r.Kind, r.Count, r.Total, r.Self)
	}

	rs := roots(spans)
	if len(rs) == 0 {
		fmt.Fprintln(stdout, "\nno iterations or top-level spans recorded")
		return
	}
	fmt.Fprintf(stdout, "\ncritical paths (%d roots):\n", len(rs))
	var detail *trace.Span
	for i, root := range rs {
		rows := trace.PathProfile(forest.CriticalPath(root))
		lead := "-"
		if len(rows) > 0 {
			lead = fmt.Sprintf("%2.0f%% %s %s", rows[0].Share*100, rows[0].Kind, rows[0].Name)
		}
		fmt.Fprintf(stdout, "  %-12s %12v  dominated by %s\n", root.Name, root.Dur(horizon), lead)
		if iterSel == i || (iterSel < 0 && root.End >= 0) {
			detail = root
		}
	}
	if detail == nil {
		detail = rs[len(rs)-1]
	}

	segs := forest.CriticalPath(detail)
	fmt.Fprintf(stdout, "\ncritical path of %s (%v):\n", detail.Name, detail.Dur(horizon))
	fmt.Fprintf(stdout, "  %-8s %-24s %14s %7s\n", "kind", "name", "self", "share")
	for i, r := range trace.PathProfile(segs) {
		if i >= top {
			break
		}
		fmt.Fprintf(stdout, "  %-8s %-24s %14v %6.1f%%\n", r.Kind, r.Name, r.Self, r.Share*100)
	}
}

// pathTotals sums critical-path self time by (kind, name) across every
// root, so two arms of an experiment can be joined identity-by-identity.
func pathTotals(spans []*trace.Span) (map[string]sim.Time, sim.Time) {
	totals := map[string]sim.Time{}
	var whole sim.Time
	forest := trace.NewForest(spans)
	for _, root := range roots(spans) {
		for _, r := range trace.PathProfile(forest.CriticalPath(root)) {
			totals[r.Kind+" "+r.Name] += r.Self
			whole += r.Self
		}
	}
	return totals, whole
}

// traceDiff attributes the end-to-end time delta between two traces (for
// example the ECMP and C4P arms of a plan sweep) to named spans on the
// critical path, sorted by how much they moved.
func traceDiff(stdout io.Writer, pathA, pathB string, sa, sb []*trace.Span, top int) {
	ta, wa := pathTotals(sa)
	tb, wb := pathTotals(sb)

	fmt.Fprintf(stdout, "critical-path time: %v (%s) vs %v (%s), delta %v\n\n",
		wa, pathA, wb, pathB, wb-wa)

	keys := map[string]bool{}
	for k := range ta {
		keys[k] = true
	}
	for k := range tb {
		keys[k] = true
	}
	type row struct {
		key   string
		a, b  sim.Time
		delta sim.Time
	}
	var rows []row
	for k := range keys {
		r := row{key: k, a: ta[k], b: tb[k]}
		r.delta = r.b - r.a
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		di, dj := rows[i].delta, rows[j].delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return rows[i].key < rows[j].key
	})
	fmt.Fprintf(stdout, "  %-34s %14s %14s %14s\n", "span (kind name)", pathA, pathB, "delta")
	for i, r := range rows {
		if i >= top {
			break
		}
		fmt.Fprintf(stdout, "  %-34s %14v %14v %+14v\n", r.key, r.a, r.b, r.delta)
	}
}

// traceCheck is the CI smoke gate: the trace must parse, contain spans,
// and yield a non-empty critical path from at least one root.
func traceCheck(stdout, stderr io.Writer, path string, spans []*trace.Span) int {
	if len(spans) == 0 {
		fmt.Fprintf(stderr, "c4 trace: %s: no spans\n", path)
		return 1
	}
	rs := roots(spans)
	if len(rs) == 0 {
		fmt.Fprintf(stderr, "c4 trace: %s: no root spans\n", path)
		return 1
	}
	forest := trace.NewForest(spans)
	for _, root := range rs {
		if len(forest.CriticalPath(root)) == 0 {
			fmt.Fprintf(stderr, "c4 trace: %s: empty critical path for %s\n", path, root.Name)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s: ok (%d spans, %d roots)\n", path, len(spans), len(rs))
	return 0
}
