package faults

import (
	"fmt"
	"slices"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/rca"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/workload"
)

// Placement selects how a trial's job nodes map onto leaf groups.
type Placement int

const (
	// Spread interleaves the job across leaf groups so every ring edge
	// crosses the spine layer (the collision-prone worst case).
	Spread Placement = iota
	// Packed fills one leaf group sequentially so traffic stays under the
	// leaves (the topology-aware placement of §III-B).
	Packed
)

func (p Placement) String() string {
	if p == Packed {
		return "packed"
	}
	return "spread"
}

// Trial is one generated experiment: a topology scale, a placement, and a
// fault schedule.
type Trial struct {
	ID        string
	JobN      int // job size in nodes (TP=8 within each node)
	Spines    int // spine count: 8 = 1:1 fabric, 4 = 2:1 oversubscription
	Placement Placement
	Specs     []Spec
}

// TrialResult is one trial's measurements across both arms.
type TrialResult struct {
	ID     string `json:"id"`
	Faults int    `json:"faults"`
	// Score is the base arm's diagnosis confusion counts; precision,
	// recall and RCA accuracy derive from it.
	Score Score `json:"score"`

	// Goodput is in training samples per second of virtual time; Base is
	// the pinned-routes arm, Steered the C4P dynamic + job steering arm.
	BaseGoodput    float64 `json:"base_goodput"`
	SteeredGoodput float64 `json:"steered_goodput"`
	BaseIters      int     `json:"base_iters"`
	SteeredIters   int     `json:"steered_iters"`

	// Events counts simulation events fired across both arms' engines.
	Events uint64 `json:"events"`
}

// Delta is the relative goodput gain of steering over the pinned baseline.
func (tr TrialResult) Delta() float64 {
	if tr.BaseGoodput <= 0 {
		return 0
	}
	return tr.SteeredGoodput/tr.BaseGoodput - 1
}

// Campaign is a named sweep: a deterministic trial generator plus a shape
// check over its trial results. It is a family of the manifest runner
// (internal/campaign), which runs its trials and pools their results.
type Campaign struct {
	Name        string
	Description string
	// Paper states the qualitative claim the sweep probes, for the
	// experiments table.
	Paper   string
	Horizon sim.Time
	// Gen produces the trial grid for a root seed. It must be
	// deterministic in the seed.
	Gen func(seed int64) []Trial
	// GenN produces a trial list of a requested size for campaigns whose
	// grid is sampled rather than enumerated (nil for fixed grid sweeps).
	// It must be prefix-stable: GenN(seed, n)[:m] == GenN(seed, m) for
	// m <= n, so a manifest scaling a campaign up only appends trials.
	GenN func(seed int64, trials int) []Trial
	// DefaultTrials is the sample count Gen draws when GenN is set; it
	// preserves the historical trial count for registry runs and bench
	// baselines while manifests request 10k+.
	DefaultTrials int
	// Check validates campaign-specific claims on the trial results, in
	// trial order (optional; generic sanity checks always run).
	Check func([]TrialResult) error
}

// Trials produces the campaign's trial list, overriding the sample count
// when n > 0. Fixed-grid campaigns reject a count override: their trial
// list is the enumerated sweep, not a sample size.
func (c Campaign) Trials(seed int64, n int) ([]Trial, error) {
	if n <= 0 {
		return c.Gen(seed), nil
	}
	if c.GenN == nil {
		return nil, fmt.Errorf("faults: campaign %s is a fixed grid of %d trials; it does not take a trial-count override",
			c.Name, len(c.Gen(seed)))
	}
	return c.GenN(seed, n), nil
}

// Aggregate pools the trials' confusion counts: the exact campaign-level
// score whose precision, recall and RCA accuracy a campaign reports.
func Aggregate(trials []TrialResult) Score {
	var sc Score
	for _, tr := range trials {
		sc = sc.Add(tr.Score)
	}
	return sc
}

// GoodputDelta is the pooled steering gain over the trials where the
// injected faults could impact the job; irrelevant-fault trials (fabric
// faults under packed placement) would only dilute it. It is 0 when no
// relevant trial measured any goodput.
func GoodputDelta(trials []TrialResult) float64 {
	var base, steered float64
	for _, tr := range trials {
		if tr.Score.Relevant == 0 {
			continue
		}
		base += tr.BaseGoodput
		steered += tr.SteeredGoodput
	}
	if base <= 0 {
		return 0
	}
	return steered/base - 1
}

// TrialSeed derives the root seed for trial i of a campaign instance from
// the campaign seed; trials must not share RNG streams or equal-seeded
// trials would correlate.
func TrialSeed(seed int64, i int) int64 { return seed + int64(i+1)*1_000_003 }

// RunTrial executes one trial's two arms and scores them.
func RunTrial(tr Trial, seed int64, horizon sim.Time) TrialResult {
	base := runArm(tr, seed, horizon, false)
	steered := runArm(tr, seed, horizon, true)
	out := TrialResult{
		ID: tr.ID, Faults: len(tr.Specs), Score: base.score,
		BaseIters: base.iters, SteeredIters: steered.iters,
		Events: base.fired + steered.fired,
	}
	out.BaseGoodput = metrics.Ratio(float64(base.iters)*samplesPerIter, horizon.Seconds())
	out.SteeredGoodput = metrics.Ratio(float64(steered.iters)*samplesPerIter, horizon.Seconds())
	return out
}

const samplesPerIter = 64

// arm is the outcome of one variant run.
type arm struct {
	iters int
	fired uint64
	score Score
}

const nodesPerGroup = 8 // MultiJobTestbed group width
const spareNodes = 4

// jobNodes maps the trial's placement onto fabric nodes.
func (tr Trial) jobNodes() []int {
	if tr.Placement != Packed {
		return Interleave(tr.JobN)
	}
	nodes := make([]int, tr.JobN)
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// Interleave places n job nodes across G leaf groups of the multi-job
// testbed (at least two) so every ring edge crosses the spine layer: the
// spread placement.
func Interleave(n int) []int {
	g := max((n+nodesPerGroup-1)/nodesPerGroup, 2)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = (i%g)*nodesPerGroup + i/g
	}
	return nodes
}

// Fabric is the topology the trial's arms run on: the multi-job testbed
// at the trial's spine count, with the leaf groups its placement spans
// and one group's worth of backup nodes after them.
func (tr Trial) Fabric() topo.Spec {
	spec := topo.MultiJobTestbed(tr.Spines)
	spec.Nodes = (slices.Max(tr.jobNodes())/nodesPerGroup+1)*nodesPerGroup + spareNodes
	return spec
}

// PinnedProvider wraps a path provider and disables its fault response:
// Repair hands back the existing assignment unchanged, so flows stay
// pinned to their planned routes and simply stall until the fault clears,
// and no QP is ever re-weighted. It is the "no steering" arm of every
// campaign.
type PinnedProvider struct{ accl.PathProvider }

// Adaptive implements accl.PathProvider: pinned QPs keep equal shares,
// whatever the wrapped provider would do.
func (PinnedProvider) Adaptive() bool { return false }

// Repair implements accl.PathProvider without repairing anything.
func (p PinnedProvider) Repair(req accl.ConnRequest, old *accl.Assignment) (*accl.Assignment, error) {
	if old != nil {
		return old, nil
	}
	return p.PathProvider.Connect(req)
}

// steerable reports whether a finding should trigger node replacement:
// node-scoped verdicts only — a single slow connection could as well be a
// fabric link, which C4P's dynamic mode already routes around.
func steerable(ev c4d.Event) bool { return ev.Scope != c4d.ScopeConnection }

// runArm executes one variant of a trial. The steered arm runs C4P in
// dynamic mode with adaptive QP weights and a steering service replacing
// blamed nodes from the backup pool; the base arm pins routes and lets
// the faults land. C4D monitors both; diagnosis is scored on the base arm,
// where the syndromes are unmasked.
func runArm(tr Trial, seed int64, horizon sim.Time, steered bool) arm {
	jobNodes := tr.jobNodes()
	// Both arms open the same QP count so the measured delta isolates the
	// fault response — dynamic re-placement, completion-time-driven QP
	// re-weighting, and node replacement — rather than a QP-fanout
	// difference (ablation-qp shows QP count alone moves goodput).
	cfg := RigConfig{
		Fabric: tr.Fabric(),
		Job:    workload.TenantSpec(tr.ID, workload.GPT22B, jobNodes, 550*sim.Millisecond),
		QPs:    4,
		Seed:   seed + 1,
		Faults: tr.Specs,
	}
	cfg.Job.SamplesPerIter = samplesPerIter
	var r *Rig
	var analyzer *rca.Analyzer
	if steered {
		cfg.Provider = c4p.C4PDynamic.On(seed)
		cfg.Steering = &SteeringPolicy{
			Spares:         spareNodes,
			IsolationDelay: 10 * sim.Second,
			RestartDelay:   60 * sim.Second,
			// Best-effort replace: the blamed node may already have been
			// swapped out by an earlier recovery, in which case the swap
			// fails and the job resumes with its current membership (the
			// fault, if still live, re-triggers C4D).
			Restart: func(int, int, error) { r.Job.Run(1<<30, nil) },
		}
	} else {
		cfg.Provider = func(t *topo.Topology) accl.PathProvider {
			return PinnedProvider{c4p.C4PStatic.On(seed)(t)}
		}
		analyzer = rca.NewAnalyzer(0)
		cfg.OnTelemetry = analyzer.Observe
	}
	r, err := NewRig(cfg)
	if err != nil {
		panic(fmt.Sprintf("faults: trial %s: %v", tr.ID, err))
	}
	if steered {
		r.Master.Subscribe(func(ev c4d.Event) {
			if steerable(ev) && slices.Contains(r.Job.Nodes(), ev.Node) {
				r.Steering.Handle(ev)
			}
		})
	}
	r.Job.Run(1<<30, nil)
	r.Run(horizon)

	a := arm{iters: len(r.Job.IterTimes()), fired: r.Eng.Fired()}
	if !steered {
		a.score = ScoreEvents(r.Master.Events(), r.Injector.Truth(jobNodes), analyzer)
	}
	return a
}
