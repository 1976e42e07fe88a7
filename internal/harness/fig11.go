package harness

import (
	"fmt"
	"strings"

	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// Fig11Result reproduces Fig 11: per-bonded-port congestion-notification
// (CNP) rates during the 2:1-oversubscription run of Fig 10b. The paper
// observes ≈15k CNPs/s per bonded port, fluctuating between 12.5k and
// 17.5k, which explains the residual spread between tasks under C4P.
type Fig11Result struct {
	// Ports holds one CNPs-per-second series per bonded NIC (node, rail 0).
	Ports []*metrics.Series
	Mean  float64
	Min   float64
	Max   float64
}

// runFig11 repeats the Fig 10b C4P run and samples CNP counters once per
// virtual second. Sampling noise (±12%, seeded) models the burstiness of
// hardware CNP generation that the fluid model averages away.
func runFig11(ctx *scenario.Ctx) Fig11Result {
	seed := ctx.Seed
	e := newEnv(ctx, topo.MultiJobTestbed(4))
	const horizon = 60 * sim.Second
	runConcurrentJobs(e, c4p.C4PStatic, seed, horizon, 2)

	res := Fig11Result{}
	noise := sim.NewRand(seed + 7)
	type state struct {
		series *metrics.Series
		last   float64
	}
	states := make([]*state, 16)
	for n := 0; n < 16; n++ {
		states[n] = &state{series: &metrics.Series{Name: fmt.Sprintf("node%d", n)}}
		res.Ports = append(res.Ports, states[n].series)
	}
	var sample func()
	warmup := 5 * sim.Second
	sample = func() {
		now := e.Eng.Now()
		for n := 0; n < 16; n++ {
			var total float64
			for p := 0; p < topo.Planes; p++ {
				total += e.Net.CNPCount(e.Topo.PortAt(n, 0, p))
			}
			st := states[n]
			rate := total - st.last
			st.last = total
			if now > warmup {
				st.series.Add(now.Seconds(), rate*(1+0.12*(2*noise.Float64()-1)))
			}
		}
		if now < horizon {
			e.Eng.After(sim.Second, sample)
		}
	}
	e.Eng.After(sim.Second, sample)
	e.Eng.RunUntil(horizon)

	var all []float64
	for _, s := range res.Ports {
		all = append(all, s.Values()...)
	}
	res.Mean = metrics.Mean(all)
	res.Min = metrics.Min(all)
	res.Max = metrics.Max(all)
	return res
}

// String summarizes the series.
func (r Fig11Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 11 — CNPs/s per bonded port during the 2:1 run\n")
	fmt.Fprintf(&sb, "mean %.0f, range [%.0f, %.0f] CNP/s across %d ports\n",
		r.Mean, r.Min, r.Max, len(r.Ports))
	return sb.String()
}

// CheckShape validates the paper's claim: a sustained kilo-CNP/s rate on
// every bonded port with bounded fluctuation (paper: ~15k ± 2.5k).
func (r Fig11Result) CheckShape() error {
	if r.Mean < 8e3 || r.Mean > 25e3 {
		return fmt.Errorf("fig11: mean CNP rate %.0f/s, want ≈15k", r.Mean)
	}
	if r.Min <= 0 {
		return fmt.Errorf("fig11: some port saw no CNPs; congestion should be universal at 2:1")
	}
	if r.Max > 3*r.Mean {
		return fmt.Errorf("fig11: max %.0f too spiky vs mean %.0f", r.Max, r.Mean)
	}
	return nil
}
