// The online/* scenario family: streaming telemetry racing batch C4D on
// identical fault schedules. Each run attaches both pipelines to one job
// through a single accl.Fanout sink, so the two detectors see byte-equal
// record streams and the measured difference is purely analysis latency
// and analysis cost. Every engine and RNG derives from the Ctx seed, so
// the parallel runner reproduces a serial sweep byte for byte.
package telemetry

import (
	"fmt"
	"strings"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/faults"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/workload"
)

// raceConfig is one online-vs-batch trial.
type raceConfig struct {
	jobN    int
	spines  int
	horizon sim.Time
	seed    int64
	specs   []faults.Spec
	drain   sim.Time // pipeline drain cadence (0 = streaming)
}

// raceOutcome is a finished race: the rig (batch C4D's verdicts and work
// counters), the online detector and its pipeline, and the ground truth.
type raceOutcome struct {
	*faults.Rig
	det    *OnlineDetector
	pipe   *Pipeline
	truths []faults.GroundTruth
}

// runRace executes one trial: a single job, one fault schedule, both
// detectors fed from one fan-out instrumentation point.
func runRace(cfg raceConfig) raceOutcome {
	fabric := topo.MultiJobTestbed(cfg.spines)
	fabric.Nodes = 16
	// Spread placement: every ring edge crosses the spine layer, the
	// fault-visible worst case.
	jobNodes := faults.Interleave(cfg.jobN)
	var det *OnlineDetector
	var pipe *Pipeline
	r, err := faults.NewRig(faults.RigConfig{
		Fabric: fabric,
		Job:    workload.TenantSpec("online-race", workload.GPT22B, jobNodes, 550*sim.Millisecond),
		QPs:    4,
		// Pinned static routes in both arms: the syndromes must stay
		// unmasked (no rerouting or node replacement) so detection latency
		// is the only difference under measurement.
		Provider: func(t *topo.Topology) accl.PathProvider {
			return faults.PinnedProvider{PathProvider: c4p.C4PStatic.On(cfg.seed)(t)}
		},
		Seed: cfg.seed + 1,
		Stream: func(eng *sim.Engine) accl.StatsSink {
			det = NewOnlineDetector(eng, DetectorConfig{})
			pipe = NewPipeline(eng, PipelineConfig{DrainInterval: cfg.drain}, det)
			return pipe
		},
		Faults: cfg.specs,
	})
	if err != nil {
		panic(fmt.Sprintf("telemetry: race: %v", err))
	}
	r.Job.Run(1<<30, nil)
	r.Run(cfg.horizon)
	pipe.Stop()
	det.Stop()
	return raceOutcome{Rig: r, det: det, pipe: pipe, truths: r.Injector.Truth(jobNodes)}
}

// ---------------------------------------------------------------------------
// online/detection-latency

// latencyTrial is one fault kind's timing comparison.
type latencyTrial struct {
	Kind string
	// Detected flags and first-detection latencies per arm.
	BatchDetected, OnlineDetected bool
	BatchTTD, OnlineTTD           sim.Time
	BatchFalseAlarms              int
	OnlineFalseAlarms             int
	Fired                         uint64
}

// Speedup is the batch TTD over the online TTD (how many times faster the
// streaming detector fired); 0 when either arm missed.
func (tr latencyTrial) Speedup() float64 {
	if !tr.BatchDetected || !tr.OnlineDetected || tr.OnlineTTD <= 0 {
		return 0
	}
	return float64(tr.BatchTTD) / float64(tr.OnlineTTD)
}

// DetectionLatencyResult compares time-to-detect across fault kinds.
type DetectionLatencyResult struct {
	Trials []latencyTrial
}

// Fired implements scenario.EventCounter.
func (r *DetectionLatencyResult) Fired() uint64 {
	var n uint64
	for _, tr := range r.Trials {
		n += tr.Fired
	}
	return n
}

// latencyFault builds the trial's fault schedule for a kind.
func latencyFault(kind string, victim int) faults.Spec {
	const start, dur = 20 * sim.Second, 50 * sim.Second
	switch kind {
	case "nic-degrade":
		return faults.Spec{Kind: faults.NICDegrade, Node: victim, Rail: 0,
			Severity: 0.75, Start: start, Duration: dur}
	case "straggler":
		return faults.Spec{Kind: faults.Straggler, Node: victim,
			Severity: 0.5, Start: start, Duration: dur}
	case "spine-outage":
		return faults.Spec{Kind: faults.SpineOutage, Rail: 0, Spine: 0,
			Start: start, Duration: dur}
	}
	panic("telemetry: unknown latency trial kind " + kind)
}

// RunDetectionLatency races the two detectors over three fault
// archetypes: a bandwidth degradation (comm-slow), a compute straggler
// (non-comm-slow) and a spine outage under pinned routes (comm-hang).
func RunDetectionLatency(ctx *scenario.Ctx) *DetectionLatencyResult {
	kinds := []string{"nic-degrade", "straggler", "spine-outage"}
	res := &DetectionLatencyResult{Trials: make([]latencyTrial, len(kinds))}
	scenario.ForEach(len(kinds), ctx.Workers, func(i int) {
		kind := kinds[i]
		const victim = 8 // in-job node (group 1, first slot)
		out := runRace(raceConfig{
			jobN: 8, spines: 8, horizon: 100 * sim.Second,
			seed:  ctx.Seed + int64(i)*7919,
			specs: []faults.Spec{latencyFault(kind, victim)},
		})
		batchRep := faults.ScoreTTD(c4d.Detections(out.Master.Events()), out.truths)
		onlineRep := faults.ScoreTTD(out.det.Detections(), out.truths)
		tr := latencyTrial{Kind: kind, Fired: out.Eng.Fired(),
			BatchFalseAlarms:  batchRep.FalseAlarms,
			OnlineFalseAlarms: onlineRep.FalseAlarms,
		}
		if len(batchRep.Faults) == 1 && batchRep.Faults[0].Detected {
			tr.BatchDetected = true
			tr.BatchTTD = batchRep.Faults[0].TimeToDetect
		}
		if len(onlineRep.Faults) == 1 && onlineRep.Faults[0].Detected {
			tr.OnlineDetected = true
			tr.OnlineTTD = onlineRep.Faults[0].TimeToDetect
		}
		res.Trials[i] = tr
	})
	ctx.Track(res)
	return res
}

func (r *DetectionLatencyResult) String() string {
	var sb strings.Builder
	sb.WriteString("online/detection-latency — streaming vs batch C4D, same fault, same records\n")
	rows := make([][]string, len(r.Trials))
	for i, tr := range r.Trials {
		fmtTTD := func(ok bool, d sim.Time) string {
			if !ok {
				return "missed"
			}
			return fmt.Sprintf("%.3fs", d.Seconds())
		}
		rows[i] = []string{
			tr.Kind,
			fmtTTD(tr.BatchDetected, tr.BatchTTD),
			fmtTTD(tr.OnlineDetected, tr.OnlineTTD),
			fmt.Sprintf("%.1fx", tr.Speedup()),
			fmt.Sprint(tr.BatchFalseAlarms),
			fmt.Sprint(tr.OnlineFalseAlarms),
		}
	}
	sb.WriteString(metrics.Table(
		[]string{"fault", "batch TTD", "online TTD", "speedup", "fp(batch)", "fp(online)"}, rows))
	return sb.String()
}

// CheckShape asserts the subsystem's reason to exist: for every fault
// kind, both arms detect, and the streaming detector's time-to-detect
// strictly beats the batch master's.
func (r *DetectionLatencyResult) CheckShape() error {
	if len(r.Trials) == 0 {
		return fmt.Errorf("detection-latency: no trials")
	}
	for _, tr := range r.Trials {
		if !tr.BatchDetected {
			return fmt.Errorf("detection-latency: %s missed by batch C4D", tr.Kind)
		}
		if !tr.OnlineDetected {
			return fmt.Errorf("detection-latency: %s missed by the online detector", tr.Kind)
		}
		if tr.OnlineTTD >= tr.BatchTTD {
			return fmt.Errorf("detection-latency: %s online TTD %v not strictly better than batch %v",
				tr.Kind, tr.OnlineTTD, tr.BatchTTD)
		}
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *DetectionLatencyResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, tr := range r.Trials {
		out["batch_ttd_s_"+tr.Kind] = tr.BatchTTD.Seconds()
		out["online_ttd_s_"+tr.Kind] = tr.OnlineTTD.Seconds()
		out["online_fp_"+tr.Kind] = float64(tr.OnlineFalseAlarms)
	}
	return out
}

// ---------------------------------------------------------------------------
// online/cadence-sweep

// cadenceArm is one drain-cadence configuration's measurements.
type cadenceArm struct {
	Drain    sim.Time
	Detected bool
	TTD      sim.Time
	Drains   uint64
	Records  uint64
	Drops    uint64
	Fired    uint64
}

// CadenceSweepResult trades collection cadence against time-to-detect.
type CadenceSweepResult struct {
	Arms []cadenceArm
}

// Fired implements scenario.EventCounter.
func (r *CadenceSweepResult) Fired() uint64 {
	var n uint64
	for _, a := range r.Arms {
		n += a.Fired
	}
	return n
}

// RunCadenceSweep runs the same NIC-degrade fault under increasingly
// coarse collector drain cadences: TTD grows toward the batch quantum
// while drain overhead falls.
func RunCadenceSweep(ctx *scenario.Ctx) *CadenceSweepResult {
	cadences := []sim.Time{0, 500 * sim.Millisecond, 2 * sim.Second, 5 * sim.Second}
	res := &CadenceSweepResult{Arms: make([]cadenceArm, len(cadences))}
	scenario.ForEach(len(cadences), ctx.Workers, func(i int) {
		out := runRace(raceConfig{
			jobN: 8, spines: 8, horizon: 100 * sim.Second,
			seed:  ctx.Seed, // same workload in every arm: only the cadence moves
			specs: []faults.Spec{latencyFault("nic-degrade", 8)},
			drain: cadences[i],
		})
		rep := faults.ScoreTTD(out.det.Detections(), out.truths)
		arm := cadenceArm{Drain: cadences[i], Drains: out.pipe.Drains(),
			Records: out.pipe.Records(), Drops: out.pipe.Dropped(), Fired: out.Eng.Fired()}
		if len(rep.Faults) == 1 && rep.Faults[0].Detected {
			arm.Detected = true
			arm.TTD = rep.Faults[0].TimeToDetect
		}
		res.Arms[i] = arm
	})
	ctx.Track(res)
	return res
}

func (r *CadenceSweepResult) String() string {
	var sb strings.Builder
	sb.WriteString("online/cadence-sweep — drain cadence vs time-to-detect (NIC degrade at 20s)\n")
	rows := make([][]string, len(r.Arms))
	for i, a := range r.Arms {
		cadence := "streaming"
		if a.Drain > 0 {
			cadence = a.Drain.String()
		}
		ttd := "missed"
		if a.Detected {
			ttd = fmt.Sprintf("%.3fs", a.TTD.Seconds())
		}
		rows[i] = []string{
			cadence, ttd, fmt.Sprint(a.Drains), fmt.Sprint(a.Records), fmt.Sprint(a.Drops),
		}
	}
	sb.WriteString(metrics.Table([]string{"cadence", "TTD", "drains", "records", "drops"}, rows))
	return sb.String()
}

// CheckShape asserts the tradeoff's direction: every cadence still
// detects, TTD never improves as the cadence coarsens, drain overhead
// strictly falls, and the default ring never drops.
func (r *CadenceSweepResult) CheckShape() error {
	for i, a := range r.Arms {
		if !a.Detected {
			return fmt.Errorf("cadence-sweep: arm %v missed the fault", a.Drain)
		}
		if a.Drops != 0 {
			return fmt.Errorf("cadence-sweep: arm %v dropped %d records with the default ring", a.Drain, a.Drops)
		}
		if i == 0 {
			continue
		}
		if a.TTD < r.Arms[i-1].TTD {
			return fmt.Errorf("cadence-sweep: TTD improved from %v to %v as cadence coarsened (%v -> %v)",
				r.Arms[i-1].TTD, a.TTD, r.Arms[i-1].Drain, a.Drain)
		}
		if a.Drains >= r.Arms[i-1].Drains {
			return fmt.Errorf("cadence-sweep: drains did not fall (%d -> %d) from %v to %v",
				r.Arms[i-1].Drains, a.Drains, r.Arms[i-1].Drain, a.Drain)
		}
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *CadenceSweepResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, a := range r.Arms {
		key := "streaming"
		if a.Drain > 0 {
			key = fmt.Sprintf("%.1fs", a.Drain.Seconds())
		}
		out["ttd_s_"+key] = a.TTD.Seconds()
		out["drains_"+key] = float64(a.Drains)
	}
	return out
}

// ---------------------------------------------------------------------------
// online/scale-sweep

// scalePoint is one fleet size's work accounting.
type scalePoint struct {
	JobN          int
	BatchPasses   int
	BatchCells    int
	Records       uint64
	OnlineUpdates uint64
	Fired         uint64
}

// BatchCellsPerPass is the batch master's per-pass recompute cost.
func (p scalePoint) BatchCellsPerPass() float64 {
	if p.BatchPasses == 0 {
		return 0
	}
	return float64(p.BatchCells) / float64(p.BatchPasses)
}

// OnlinePerRecord is the streaming cost per record in elementary state
// updates (records plus loop iterations on the per-record path). It must
// stay a small flat constant as the fleet grows — a per-record member
// scan would make it track fleet size.
func (p scalePoint) OnlinePerRecord() float64 {
	return metrics.Ratio(float64(p.OnlineUpdates), float64(p.Records))
}

// ScaleSweepResult benchmarks incremental ingest against full recompute
// as the fleet grows.
type ScaleSweepResult struct {
	Points []scalePoint
}

// Fired implements scenario.EventCounter.
func (r *ScaleSweepResult) Fired() uint64 {
	var n uint64
	for _, p := range r.Points {
		n += p.Fired
	}
	return n
}

// RunScaleSweep runs healthy jobs of growing size with both detectors
// attached and compares work: the batch master revisits every delay-
// matrix cell each pass (cost grows with fleet size), the streaming
// detector performs exactly one update per record at every scale.
func RunScaleSweep(ctx *scenario.Ctx) *ScaleSweepResult {
	sizes := []int{2, 4, 8}
	res := &ScaleSweepResult{Points: make([]scalePoint, len(sizes))}
	scenario.ForEach(len(sizes), ctx.Workers, func(i int) {
		out := runRace(raceConfig{
			jobN: sizes[i], spines: 8, horizon: 40 * sim.Second,
			seed: ctx.Seed + int64(sizes[i]),
		})
		res.Points[i] = scalePoint{
			JobN: sizes[i], BatchPasses: out.Master.AnalyzePasses(), BatchCells: out.Master.MatrixCellVisits(),
			Records: out.pipe.Records(), OnlineUpdates: out.det.Updates(), Fired: out.Eng.Fired(),
		}
	})
	ctx.Track(res)
	return res
}

func (r *ScaleSweepResult) String() string {
	var sb strings.Builder
	sb.WriteString("online/scale-sweep — batch full recompute vs streaming incremental ingest\n")
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprint(p.JobN),
			fmt.Sprint(p.BatchPasses),
			fmt.Sprintf("%.1f", p.BatchCellsPerPass()),
			fmt.Sprint(p.Records),
			fmt.Sprintf("%.2f", p.OnlinePerRecord()),
		}
	}
	sb.WriteString(metrics.Table(
		[]string{"nodes", "batch passes", "cells/pass", "records", "online ops/record"}, rows))
	return sb.String()
}

// CheckShape asserts the asymptotic claim: per-pass batch cost grows
// strictly with fleet size while the streaming cost per record stays a
// small flat constant — bounded absolutely, and not growing from the
// smallest fleet to the largest (a reintroduced per-record member scan
// would trip either bound).
func (r *ScaleSweepResult) CheckShape() error {
	const maxPerRecord = 10.0
	for i, p := range r.Points {
		if p.BatchPasses == 0 || p.Records == 0 {
			return fmt.Errorf("scale-sweep: %d nodes did no work (passes %d, records %d)",
				p.JobN, p.BatchPasses, p.Records)
		}
		if c := p.OnlinePerRecord(); c < 1 || c > maxPerRecord {
			return fmt.Errorf("scale-sweep: %d nodes: online cost %.2f ops/record outside [1, %.0f]",
				p.JobN, c, maxPerRecord)
		}
		if c0 := r.Points[0].OnlinePerRecord(); p.OnlinePerRecord() > c0*1.15 {
			return fmt.Errorf("scale-sweep: online cost grew with fleet size (%.2f at %d nodes vs %.2f at %d): ingest is no longer O(1)/record",
				p.OnlinePerRecord(), p.JobN, c0, r.Points[0].JobN)
		}
		if i > 0 && p.BatchCellsPerPass() <= r.Points[i-1].BatchCellsPerPass() {
			return fmt.Errorf("scale-sweep: batch cells/pass did not grow (%d nodes %.1f -> %d nodes %.1f)",
				r.Points[i-1].JobN, r.Points[i-1].BatchCellsPerPass(), p.JobN, p.BatchCellsPerPass())
		}
	}
	return nil
}

// Metrics feeds the bench-regression guard.
func (r *ScaleSweepResult) Metrics() map[string]float64 {
	out := map[string]float64{}
	for _, p := range r.Points {
		out[fmt.Sprintf("batch_cells_per_pass_%dn", p.JobN)] = p.BatchCellsPerPass()
		out[fmt.Sprintf("records_%dn", p.JobN)] = float64(p.Records)
		out[fmt.Sprintf("online_ops_per_record_%dn", p.JobN)] = p.OnlinePerRecord()
	}
	return out
}
