package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"c4/internal/harness" // registers every scenario and campaign
	"c4/internal/metrics"
	"c4/internal/scenario"
)

// runBench is `c4 bench`: any selection of the registry's paper tables,
// figures, ablations, pipelines and fault campaigns, executed
// concurrently on a worker pool and printed with shape-check verdicts and
// per-scenario wall-time/event statistics.
//
//	c4 bench                              # every registered scenario
//	c4 bench -list                        # enumerate scenarios
//	c4 bench -only fig12,fig13            # a selection
//	c4 bench -only 'ablation-*'           # glob selection
//	c4 bench -only 'campaign/*' -campaign-json out  # campaigns + merged reports
//	c4 bench -md > EXPERIMENTS.md         # paper-vs-measured markdown table
//	c4 bench -json > baseline.json        # bench-regression baseline (see c4 benchdiff)
func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("bench", stderr)
	var (
		seed    = fs.Int64("seed", 1, "simulation seed")
		only    = fs.String("only", "all", "comma-separated scenario names (globs allowed)")
		workers = fs.Int("workers", 0, "concurrent scenarios (0 = GOMAXPROCS)")
		list    = fs.Bool("list", false, "list registered scenarios and exit")
		md      = fs.Bool("md", false, "emit the EXPERIMENTS.md paper-vs-measured table")
		jsonOut = fs.Bool("json", false, "emit the bench-regression JSON report of every tracked scenario")
		shard   = fs.String("shard", "", "run one stride of the selection: \"i/n\" keeps scenarios with index ≡ i (mod n)")
		cmpJSON = fs.String("campaign-json", "", "also write each selected fault campaign's merged report (the c4 campaign merge format) to <name>.json in this directory")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	if *list {
		scenario.FprintList(stdout, scenario.All())
		return 0
	}
	scns, err := scenario.Select(*only)
	if err != nil {
		fmt.Fprintf(stderr, "c4 bench: %v\n", err)
		return 2
	}
	if *jsonOut {
		// The bench guard tracks only scenarios with a metrics extractor.
		var tracked []scenario.Scenario
		for _, s := range scns {
			if s.Metrics != nil {
				tracked = append(tracked, s)
			}
		}
		if len(tracked) == 0 {
			fmt.Fprintf(stderr, "c4 bench: no tracked scenario in selection %q\n", *only)
			return 2
		}
		scns = tracked
	}
	if *shard != "" {
		sharded, err := shardScenarios(scns, *shard)
		if err != nil {
			fmt.Fprintf(stderr, "c4 bench: %v\n", err)
			return 2
		}
		scns = sharded
	}
	runner := &scenario.Runner{Workers: *workers}
	reports := runner.Run(context.Background(), *seed, scns)

	failures := 0
	switch {
	case *jsonOut:
		failures = writeBenchJSON(stdout, stderr, scns, reports, *seed)
	case *md:
		failures = writeMarkdown(stdout, scns, reports, *seed)
	default:
		for _, rep := range reports {
			fmt.Fprintln(stdout, "==============================================")
			if scenario.FprintReport(stdout, rep) {
				failures++
			}
		}
	}
	if *cmpJSON != "" {
		failures += writeCampaignJSON(*cmpJSON, reports, stderr)
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "c4 bench: %d scenario(s) failed\n", failures)
		return 1
	}
	return 0
}

// shardScenarios keeps the stride i (mod n) of the selection — the same
// protocol campaign shards use, so a CI matrix can split the registry
// across jobs. The selection is sorted before striding (scenario.Select
// returns registry order), making shard membership independent of how
// the caller spelled the selection.
func shardScenarios(scns []scenario.Scenario, spec string) ([]scenario.Scenario, error) {
	shard, of, err := parseShard(spec)
	if err != nil {
		return nil, err
	}
	sorted := make([]scenario.Scenario, len(scns))
	copy(sorted, scns)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var mine []scenario.Scenario
	for i, s := range sorted {
		if i%of == shard {
			mine = append(mine, s)
		}
	}
	if len(mine) == 0 {
		return nil, fmt.Errorf("-shard %s selects no scenarios (selection has %d)", spec, len(scns))
	}
	return mine, nil
}

// writeCampaignJSON archives the merged report of every fault campaign
// that ran, as dir/<name>.json, returning how many writes failed.
func writeCampaignJSON(dir string, reports []scenario.Report, stderr io.Writer) int {
	failures := 0
	for _, rep := range reports {
		res, ok := rep.Result.(*harness.CampaignResult)
		if rep.Err != nil || !ok {
			continue
		}
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = writeFile(filepath.Join(dir, res.Name+".json"), nil, res.WriteJSON)
		}
		if err != nil {
			fmt.Fprintf(stderr, "c4 bench: %v\n", err)
			failures++
		}
	}
	return failures
}

// writeBenchJSON emits the deterministic baseline the regression guard
// compares against, returning how many scenarios failed outright.
func writeBenchJSON(w, stderr io.Writer, scns []scenario.Scenario, reports []scenario.Report, seed int64) int {
	rep := metrics.BenchReport{Seed: seed}
	failures := 0
	for i, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(stderr, "c4 bench: %s: %v\n", r.Name, r.Err)
			failures++
			continue
		}
		if r.ShapeErr != nil {
			fmt.Fprintf(stderr, "c4 bench: %s shape check: %v\n", r.Name, r.ShapeErr)
			failures++
		}
		rep.Scenarios = append(rep.Scenarios, metrics.BenchScenario{
			Name: r.Name, Events: r.Events, Metrics: scns[i].Metrics(r.Result),
		})
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(stderr, "c4 bench: %v\n", err)
		failures++
	}
	return failures
}

// writeMarkdown renders the paper-vs-measured table EXPERIMENTS.md holds,
// returning how many scenarios failed their run or shape check.
func writeMarkdown(w io.Writer, scns []scenario.Scenario, reports []scenario.Report, seed int64) int {
	fmt.Fprintln(w, "# EXPERIMENTS — paper vs measured")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every table and figure of the C4 paper (Dong et al., HPCA 2025,")
	fmt.Fprintln(w, "arXiv:2406.04594), reproduced on the simulated substrate through the")
	fmt.Fprintln(w, "scenario registry. Regenerate with `make experiments` (or")
	fmt.Fprintf(w, "`go run ./cmd/c4 bench -md -seed %d > EXPERIMENTS.md`). Each scenario\n", seed)
	fmt.Fprintln(w, "is runnable by name: `go run ./cmd/c4 bench -only <scenario>`.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| scenario | group | paper says | measured (seed %d) | shape check |\n", seed)
	fmt.Fprintln(w, "|---|---|---|---|---|")
	failures := 0
	for i, rep := range reports {
		s := scns[i]
		measured, verdict := "", "OK"
		switch {
		case rep.Err != nil:
			measured, verdict = rep.Err.Error(), "FAIL"
		case s.Summarize != nil:
			measured = s.Summarize(rep.Result)
		default:
			measured = "(no summarizer)"
		}
		if rep.Err == nil && rep.ShapeErr != nil {
			verdict = "FAIL: " + rep.ShapeErr.Error()
		}
		if verdict != "OK" {
			failures++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
			s.Name, s.Group, escape(s.Paper), escape(measured), escape(verdict))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Scenario parameters:")
	fmt.Fprintln(w)
	for i, s := range scns {
		if len(s.Params) == 0 {
			continue
		}
		keys := make([]string, 0, len(s.Params))
		for k := range s.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for j, k := range keys {
			parts[j] = k + "=" + s.Params[k]
		}
		// Wall time is host-dependent; only the deterministic event count
		// goes into the committed file, so regeneration is byte-stable.
		fmt.Fprintf(w, "- `%s`: %s (%d events)\n",
			s.Name, strings.Join(parts, ", "), reports[i].Events)
	}
	writeFaultModelDocs(w)
	writeTenancyDocs(w)
	writeOnlineDocs(w)
	writePlanDocs(w)
	writeScaleDocs(w)
	return failures
}

// writeFaultModelDocs documents the fault model and campaign knobs
// (internal/faults) in the generated experiments file.
func writeFaultModelDocs(w io.Writer) {
	fmt.Fprintln(w, `
## Fault model and campaign knobs

The campaign/* scenarios sweep the parameterized fault model in
internal/faults over topology scale and placement. Each trial runs its
fault schedule twice — C4P dynamic steering + C4D-driven node replacement
versus pinned routes with no fault response — and scores C4D diagnosis
precision/recall against the injected ground truth, RCA top-cause accuracy,
and the goodput delta steering buys.

Fault archetypes (composable; overlapping faults on one component stack):

- link-flap: one leaf uplink cable flaps. Severity = duty cycle (fraction
  of each Period spent down); knobs: rail, plane, group, uplink, period.
- nic-degrade: a node's NIC renegotiates down. Severity = capacity
  fraction lost on every port link of (node, rail).
- spine-outage: a whole spine switch dies; every leaf-up/spine-down link
  touching (rail, spine) goes dark for the duration.
- straggler: a node's compute slows by Severity seconds per iteration.
- packet-drop: one leaf uplink silently drops a Severity fraction of
  packets at full capacity — invisible to link-state monitors, visible
  only in transport statistics.

Trial knobs: job size (8/16/32 nodes, TP=8 per node), spine count (8 = 1:1
fabric, 4 = 2:1 oversubscription), placement (spread = every ring edge
crosses the spines; packed = one leaf group, fabric-fault immune), fault
start/duration, and per-kind severity. Each campaign/* row above is the
one-entry manifest {family, seeds: {from: seed, count: 1}} run in process
through the manifest runner below, as one shard, and merged; the row
shows the merged report's pooled aggregate.
`+"`c4 bench -only campaign/<name> -campaign-json DIR`"+` writes that merged
report, bootstrap confidence intervals included, in the format
`+"`c4 campaign check`"+` reads, and `+"`c4 bench -json`"+` the bench baseline.

Beyond the fixed registry rows, manifest-driven campaigns
(`+"`c4 campaign`"+`, manifests in campaigns/) scale the sampled
families to thousands of trials across seed ranges and knob grids,
sharded over processes with a deterministic merge: the merged report adds
across-trial mean/stddev and seeded bootstrap 95% confidence intervals on
C4D precision/recall, RCA accuracy and the steering goodput delta, and a
4-shard merge is byte-identical to a serial run (see README
"Campaigns at scale").`)
}

// writeTenancyDocs documents the multi-tenant scenario family's engine and
// knobs (internal/tenancy) in the generated experiments file.
func writeTenancyDocs(w io.Writer) {
	fmt.Fprintln(w, `
## Multi-tenant scenarios

The tenancy/* scenarios replay job arrival traces against one shared
fabric: N concurrent training jobs (pure DP, TP8 intra-node) are placed
by a pluggable policy (packed / spread / random), queue FIFO when the
cluster is full, and contend on the same simulated links. Reported
metrics: per-job goodput (samples/s), stretch (mean iteration time over
the job's compute-only iteration time), and Jain's fairness index over
per-node goodputs.

- tenancy/collision-sweep: 1/2/4 concurrent 4-node jobs, spread
  placement, 2:1 fabric, pinned-ECMP arm vs C4P-dynamic arm. The shape
  check requires C4P to win aggregate goodput at every count >= 2.
- tenancy/churn: a seeded Poisson trace (mean interarrival 6 s, mean
  duration 25 s, sizes 2/4) on the 1:1 fabric under C4P with packed
  placement; every admitted tenant must make progress and depart cleanly.
- tenancy/placement-compare: the same 3-job workload under each placement
  policy with pinned ECMP at 2:1; packing must beat spreading.

Traces are JSON (`+"`c4 sim -tenancy-trace FILE`"+`; format in README.md)
and equal seeds replay byte-identically, serial or parallel.`)
}

// writeOnlineDocs documents the streaming-telemetry scenario family's
// engine and knobs (internal/telemetry) in the generated experiments file.
func writeOnlineDocs(w io.Writer) {
	fmt.Fprintln(w, `
## Streaming telemetry scenarios

The online/* scenarios race the streaming detector (internal/telemetry)
against batch C4D on identical fault schedules: one job, one fault, both
analysis planes fed byte-equal record streams through a single
`+"`accl.Fanout`"+` instrumentation point. The streaming plane ingests
records through bounded per-node ring collectors (drops accounted),
merges them in deterministic event-time order, and folds them into
incremental aggregates — EWMA, a fixed-bin streaming quantile sketch for
the healthy-median baseline, O(1)-per-record delay-matrix updates — so
detections fire the instant a threshold crosses instead of at the next
reporting tick.

- online/detection-latency: nic-degrade / straggler / spine-outage under
  pinned routes; TimeToDetect scored against the injected ground truth
  for both arms. The shape check requires the online detector to strictly
  beat batch C4D on every fault.
- online/cadence-sweep: the same fault under coarsening collector drain
  cadences (streaming, 0.5 s, 2 s, 5 s): TTD may only grow, drain
  overhead must fall, the default ring must not drop.
- online/scale-sweep: healthy jobs of 2/4/8 nodes with both planes
  attached; the batch master's delay-matrix cells per pass must grow with
  fleet size while the streaming cost per record (state updates + loop
  iterations on the ingest path) stays a small flat constant.

Telemetry streams serialize as JSONL (`+"`c4 sim -telemetry-out FILE`"+`,
format in README.md) and replay offline through `+"`c4 replay`"+`, which
reproduces the live detections at identical virtual instants.`)
}

// writePlanDocs documents the training-iteration planner family's engine
// and knobs (internal/plan) in the generated experiments file.
func writePlanDocs(w io.Writer) {
	fmt.Fprintln(w, `
## Training-iteration planner scenarios

The plan/* scenarios run internal/plan, the compiler from a 3D
parallelization strategy (TP/PP/DP + gradient accumulation) to a timed
1F1B micro-batch schedule executed on the simulated fabric: per-stage
forward/backward compute slots in the canonical one-forward-one-backward
order, activation and gradient tensors shipped between adjacent stages as
point-to-point `+"`accl.SendRecv`"+` traffic, and the data-parallel
gradient volume split into buckets that launch inside the final backward
pass (overlap on) or at the stage drain (overlap off). Every run reports
the iteration breakdown the sweeps assert on:

    iteration = compute + pipeline bubble + exposed communication

- plan/strategy-sweep: DP×PP splits of a fixed 16-node world under both
  ECMP and C4P. The shape check asserts the paper's precondition: the
  exposed-communication share falls as PP deepens, and the C4P-over-ECMP
  goodput delta grows monotonically with that share.
- plan/bucket-sweep: the overlap benefit curve. Exposed communication
  falls monotonically as buckets shrink, but throughput peaks at an
  interior bucket size — ever-finer buckets steal fabric bandwidth from
  the pipeline drain's gradient transfers.
- plan/overlap-ablation: overlap on vs off at fixed strategy and bucket
  size; overlap must strictly reduce exposed communication and win
  throughput.

Single strategies compile and run from the CLI
(`+"`c4 sim -plan tp8/pp4/dp2/ga8 -plan-bucket-mib 256 -plan-overlap`"+`),
and arrival-trace tenants take `+"`pp`"+`/`+"`ga`"+` fields, so
multi-tenant runs can mix pipeline and pure-DP traffic on one fabric.`)
}

// writeScaleDocs documents the netsim kernel family (internal/netsim's
// flow-class kernel and parallel component settle) in the generated
// experiments file.
func writeScaleDocs(w io.Writer) {
	fmt.Fprintln(w, `
## Netsim kernel scenarios

The netsim/* scenarios measure the fluid network kernel at datacenter
scale on a gang-partitioned world: groups of 8 nodes running ring
traffic, each ring edge carrying many equal-path flows (QPs times
in-flight chunks). The kernel is built on that shape:

- flow classes: flows with identical link chains collapse into one
  fluid class with a member count (a one-member class is a flow), so
  max-min filling, the CNP pass, and the ETA pass cost O(classes), not
  O(flows). Per-flow semantics (StartFlow / Cancel / Reroute /
  PathDown, per-member completion callbacks) are untouched.
- event-local link components: touched links partition into connected
  components via union-find, and each component fills in its own rounds,
  with its own smallest share as each round's bottleneck. Components
  persist between recomputes, and a recompute re-fills only the
  components its changes reach (a class whose membership changed, or all
  of them after a link change); the others keep their rates.
- parallel component settle (`+"`netsim.Config.SettleWorkers`"+`, the one
  performance knob): the re-filled components fill on a bounded worker
  pool, one fork-join per recompute; components are memory-disjoint and
  outputs merge in deterministic order, so the parallel run is
  byte-identical to serial (proved under -race in CI).

Work is scored in deterministic KernelStats link visits, so the numbers
are bench-baseline stable. netsim/scale-aggregate pins the class and
component census and the kernel's work at 32 flows per chain;
netsim/scale-parallel pins serial == 8-worker settle; netsim/scale-sweep
shows the work per recompute staying within 1.25x while flows per chain
grow 16x. The per-flow kernel the class kernel replaced is kept as a test
oracle in internal/netsim, where the class kernel must match it bit for
bit while the oracle, which re-fills the whole fabric flow by flow, does
13.7x, 43.2x and 161.4x the work at 8, 32 and 128 flows per chain; the
accl collective test and whole-family replays of the
figure/tenancy/plan/campaign scenarios are pinned to goldens recorded
from it, under serial and 4-worker settle.`)
}

func escape(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, "|", "\\|"), "\n", " ")
}
