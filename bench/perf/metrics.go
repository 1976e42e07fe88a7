package main

import "strings"

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root repeats this table; the self-test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the reproduction sees, reported by
// every untraced run of every workload. Bound is the share of the parent's
// median by which a metric may worsen before a change counts as a
// regression. The times' bounds are as wide as the shared host's noise
// makes them (README.md, "Spreads and bounds"); set-up time, which later
// work could be moved into, gets the widest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "unit_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// paperScenarios is the paper workload: every registered experiment except
// the fault campaigns (the campaign workload's subject) and the 256-node
// kernel scenarios (the scale workload's). The list is pinned rather than
// derived from the registry, so a scenario added later does not silently
// change what the benchmark measures.
var paperScenarios = []string{
	"tableI", "tableIII",
	"fig3", "fig9", "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14",
	"pipeline", "nccltest", "analyzer-demo",
	"ablation-plane", "ablation-algo", "ablation-ckpt", "ablation-kappa", "ablation-qp",
	"tenancy/collision-sweep", "tenancy/churn", "tenancy/placement-compare",
	"online/detection-latency", "online/cadence-sweep", "online/scale-sweep",
	"plan/strategy-sweep", "plan/bucket-sweep", "plan/overlap-ablation",
}

// scaleScenarios is the scale workload: the 256-node netsim kernel family.
var scaleScenarios = []string{"netsim/scale-aggregate", "netsim/scale-parallel", "netsim/scale-sweep"}

// layers are the buckets CPU profile samples are attributed to, by the Go
// package of the sampled leaf frame: the repository's packages by name,
// the benchmark itself, and the standard-library parts that show up in
// profiles.
var layers = []string{
	"netsim", "sim", "accl", "c4p", "c4d", "telemetry", "plan", "job",
	"faults", "steering", "rca", "topo", "tenancy", "cluster", "sched",
	"workload", "ckpt", "harness", "scenario", "campaign", "serve",
	"metrics", "trace", "c4", "bench",
	"go.runtime", "go.heap", "go.json", "go.net", "go.sort", "other",
}

// perLayer lists the metrics of a traced run. A metric that does not apply
// to a workload reads 0 there (netsim on replay, serve on paper).
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, l := range layers {
		add(l+".self_pct", "%", "lower")
	}
	add("go.allocs", "count", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_cpu_pct", "%", "lower")
	add("go.peak_rss_mb", "MB", "lower")
	add("sim.events", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("netsim.agg_link_visits", "count", "lower")
	add("netsim.ref_link_visits", "count", "lower")
	add("c4d.cells_per_pass_8n", "count", "lower")
	add("telemetry.ops_per_record_8n", "count", "lower")
	for _, s := range append(append([]string(nil), paperScenarios...), scaleScenarios...) {
		add(scenarioMetric(s), "ms", "lower")
	}
	add("campaign.run_s", "s", "lower")
	add("campaign.merge_ms", "ms", "lower")
	add("serve.session_ms_p50", "ms", "lower")
	add("serve.session_ms_p95", "ms", "lower")
	for _, op := range serveOps {
		add("serve."+op+"_ms_p50", "ms", "lower")
	}
	add("serve.stream_ms_p95", "ms", "lower")
	add("serve.sse_bytes", "count", "lower")
	add("serve.records", "count", "lower")
	add("telemetry.decode_ns_per_record", "ns", "lower")
	add("telemetry.detect_ns_per_record", "ns", "lower")
	add("telemetry.updates_per_record", "count", "lower")
	add("traced_unit_ms", "ms", "lower")
	add("trace_overhead_pct", "%", "lower")
	return defs
}

// scenarioMetric names a scenario's median host time in a traced run.
func scenarioMetric(name string) string {
	return "scenario." + strings.ReplaceAll(name, "/", ".") + ".ms"
}
