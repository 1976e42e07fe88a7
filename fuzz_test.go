package c4

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"c4/internal/c4p"
	"c4/internal/plan"
	"c4/internal/sim"
)

// FuzzNewSession feeds arbitrary POST /v1/sessions bodies through the
// server's decoding and NewSession; it never calls Run. Three parsers sit
// behind it: the SessionSpec body, tenancy.ParseTrace and
// workload.ParseParallelism. Properties:
//   - nothing panics;
//   - an accepted spec resolves inside the creation bounds, so its Run
//     can neither overflow the simulated clock, nor fault a node outside
//     the job, nor compile an unbounded plan.
//
// Plain `go test` replays the committed corpus (testdata/fuzz/); `make
// fuzz-smoke` explores further.
func FuzzNewSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSessionSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("decoded %q, which is not exactly one JSON document", data)
		}
		sess, err := NewSession(SessionOptions{Spec: spec})
		if err != nil {
			return
		}
		if jr := sess.jr; jr != nil {
			checkJobBounds(t, jr)
			checkPolicy(t, spec.Job.Provider, jr.kind)
		}
		if ten := sess.ten; ten != nil {
			checkPolicy(t, spec.Tenancy.Provider, ten.Arm)
			checkSpan(t, "tenancy horizon", ten.Horizon)
			for i, ev := range ten.Trace.Events {
				slots := float64(max(ev.GA, 1)) + float64(max(ev.PP, 1))
				if !sim.ValidSpan(ev.AtS) || !(ev.DurationS > 0) || !sim.ValidSpan(ev.DurationS) ||
					!(ev.ComputeMS >= 0) || !sim.ValidSpan(ev.ComputeMS/1e3*slots) ||
					ev.GA > plan.MaxGA || ev.PP < 0 || ev.GA < 0 || ev.Nodes <= 0 {
					t.Fatalf("accepted tenancy event %d out of bounds: %+v", i, ev)
				}
			}
		}
	})
}

// checkPolicy fails unless an accepted spec runs the policy its provider
// name parses to.
func checkPolicy(t *testing.T, name string, got c4p.ProviderKind) {
	t.Helper()
	if want, err := c4p.ParseProviderKind(name); err != nil || got != want {
		t.Fatalf("accepted provider %q resolved to %v (parse: %v, %v)", name, got, want, err)
	}
}

// checkSpan fails unless d is a positive span of at most
// sim.MaxSpanSeconds.
func checkSpan(t *testing.T, what string, d sim.Time) {
	t.Helper()
	if d <= 0 || d > sim.FromSeconds(sim.MaxSpanSeconds) {
		t.Fatalf("accepted %s %v outside (0, %g s]", what, d, sim.MaxSpanSeconds)
	}
}

func checkJobBounds(t *testing.T, jr *jobResolved) {
	t.Helper()
	checkSpan(t, "horizon", jr.horizon)
	par, nodes := jr.spec.Par.Normalize(), jr.spec.Nodes
	if par.PP < 1 || par.DP < 1 || par.PP > jobNodes || par.DP > jobNodes || len(nodes) != par.PP*par.DP || len(nodes) > jobNodes {
		t.Fatalf("accepted strategy %v on %d nodes", par, len(nodes))
	}
	for _, n := range nodes {
		if n < 0 || n >= jobNodes {
			t.Fatalf("accepted placement %v outside the %d primaries", nodes, jobNodes)
		}
	}
	for _, f := range jr.faults {
		checkSpan(t, "fault instant", f.Start)
		if !slices.Contains(nodes, f.Node) {
			t.Fatalf("accepted victim %d outside the job's nodes %v", f.Node, nodes)
		}
	}
	if (jr.fault != "none") != (len(jr.faults) == 1) {
		t.Fatalf("fault %q resolved to %d specs", jr.fault, len(jr.faults))
	}
	if jr.iters <= 0 || par.GA < 1 || par.GA > plan.MaxGA {
		t.Fatalf("accepted %d iterations of GA %d", jr.iters, par.GA)
	}
	p, err := plan.Compile(jr.spec, jr.opts)
	if err != nil {
		t.Fatalf("accepted a job whose plan does not compile: %v", err)
	}
	if len(p.Buckets) > plan.MaxBuckets {
		t.Fatalf("accepted %d buckets per stage", len(p.Buckets))
	}
}
