package harness

import (
	"fmt"
	"strings"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/c4p"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// AnalyzerDemoResult exercises the offline C4 Analyzer workflow of Fig 5:
// a monitored allreduce loop suffers a mid-run Rx degradation, the ACCL
// recorder archives the transport time series, and the same delay-matrix
// localizer the online master uses replays it per window. `c4 analyze
// -demo` runs this scenario and archives its records as a telemetry
// stream.
type AnalyzerDemoResult struct {
	Victim   int
	SlowedAt sim.Time
	// Recorder holds the run's communicator, operation, transport and
	// wait records.
	Recorder *accl.Recorder
	// Findings are the offline per-window verdicts.
	Findings []c4d.OfflineFinding
}

func runAnalyzerDemo(ctx *scenario.Ctx) AnalyzerDemoResult {
	res := AnalyzerDemoResult{Victim: 9, SlowedAt: 30 * sim.Second}
	env := newEnv(ctx, topo.MultiJobTestbed(8))
	rec := &accl.Recorder{}
	res.Recorder = rec
	comm, err := accl.NewCommunicator(accl.Config{
		Engine: env.Eng, Net: env.Net,
		Provider: env.NewProvider(c4p.C4PStatic, ctx.Seed),
		Sink:     rec, Rails: []int{0},
		Rand: sim.NewRand(ctx.Seed),
	}, []int{0, 8, 1, 9, 2, 10})
	if err != nil {
		panic(err)
	}
	var iterate func()
	iterate = func() {
		comm.AllReduce(64<<20, nil, func(accl.Result) { iterate() })
	}
	iterate()
	env.Eng.Schedule(res.SlowedAt, func() {
		// The victim's receive side degrades: the analyzer should localize
		// connections into node 9 in the affected windows.
		for p := 0; p < topo.Planes; p++ {
			env.Net.SetLinkCapacity(env.Topo.PortAt(res.Victim, 0, p).Down, 25)
		}
	})
	env.Eng.RunUntil(60 * sim.Second)

	res.Findings = c4d.AnalyzeOffline(rec.Messages, 10*sim.Second, 2, 0.6)
	return res
}

// String renders the per-window findings.
func (r AnalyzerDemoResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Offline analyzer demo — node %d Rx degraded at %v\n", r.Victim, r.SlowedAt)
	fmt.Fprintf(&sb, "%d transport records, %d findings\n", len(r.Recorder.Messages), len(r.Findings))
	for _, of := range r.Findings {
		fmt.Fprintln(&sb, of)
	}
	return sb.String()
}

// CheckShape validates the offline localization: the degraded windows must
// blame the victim's receive side and no healthy pre-fault window may.
func (r AnalyzerDemoResult) CheckShape() error {
	if len(r.Recorder.Messages) == 0 {
		return fmt.Errorf("analyzer demo: no transport records archived")
	}
	blamed := false
	for _, of := range r.Findings {
		if of.Finding.Dst == r.Victim {
			blamed = true
		}
		if of.WindowEnd <= r.SlowedAt {
			return fmt.Errorf("analyzer demo: finding in healthy window [%v..%v]",
				of.WindowStart, of.WindowEnd)
		}
	}
	if !blamed {
		return fmt.Errorf("analyzer demo: no finding blames node %d Rx", r.Victim)
	}
	return nil
}
