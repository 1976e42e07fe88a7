package faults

import (
	"fmt"

	"c4/internal/sim"
)

// Default campaign timing: faults land after the job warms up and clear
// with enough horizon left to observe recovery.
const (
	campaignHorizon = 5 * sim.Minute
	faultStart      = 40 * sim.Second
	faultSpan       = 220 * sim.Second
)

// Campaigns returns every predefined campaign, in registration order.
// Each one is registered in the scenario registry as "campaign/<name>".
func Campaigns() []Campaign {
	return []Campaign{
		flapSweep(),
		degradeSweep(),
		outageSweep(),
		stragglerSweep(),
		mixedMonteCarlo(),
	}
}

// ByName resolves a campaign by its short name.
func ByName(name string) (Campaign, bool) {
	for _, c := range Campaigns() {
		if c.Name == name {
			return c, true
		}
	}
	return Campaign{}, false
}

// flapSweep sweeps link-flap duty cycle × fabric oversubscription ×
// placement. Spread placements route every ring edge over the spines, so a
// flapping uplink stalls pinned routes for its duty share of each period;
// packed single-leaf placements never touch the spine layer and must ride
// through untouched.
func flapSweep() Campaign {
	return Campaign{
		Name:        "flap-sweep",
		Description: "link-flap duty cycle x oversubscription x placement",
		Paper:       "flapping uplinks stall pinned routes; C4P steering routes around each down window",
		Horizon:     campaignHorizon,
		Gen: func(seed int64) []Trial {
			var trials []Trial
			for _, duty := range []float64{0.25, 0.5, 0.75} {
				for _, spines := range []int{8, 4} {
					for _, pl := range []Placement{Spread, Packed} {
						jobN := 16
						if pl == Packed {
							jobN = 8 // one full leaf group: no spine traffic
						}
						trials = append(trials, Trial{
							ID:   fmt.Sprintf("flap-d%02.0f-x%d-%s", duty*100, spines, pl),
							JobN: jobN, Spines: spines, Placement: pl,
							Specs: []Spec{{
								Kind: LinkFlap, Rail: 0, Plane: 0, Group: 0, Uplink: 1,
								Severity: duty, Period: 16 * sim.Second,
								Start: faultStart, Duration: faultSpan,
							}},
						})
					}
				}
			}
			return trials
		},
		Check: func(r *Result) error {
			agg := r.Aggregate()
			if agg.Recall() < 0.8 {
				return fmt.Errorf("flap-sweep: recall %.2f, want >=0.8", agg.Recall())
			}
			if agg.Precision() < 0.7 {
				return fmt.Errorf("flap-sweep: precision %.2f, want >=0.7", agg.Precision())
			}
			if d := r.GoodputDelta(); d < 0.3 {
				return fmt.Errorf("flap-sweep: steering goodput delta %+.2f, want >=+0.3", d)
			}
			// Packed single-leaf trials never cross the flapped uplink: the
			// fault must be irrelevant there and steering must not matter.
			for _, tr := range r.Trials {
				if tr.Score.Relevant == 0 {
					if d := tr.Delta(); d < -0.1 || d > 0.1 {
						return fmt.Errorf("flap-sweep: immune trial %s has delta %+.2f", tr.ID, d)
					}
				}
			}
			return nil
		},
	}
}

// degradeSweep sweeps partial-bandwidth faults: NIC renegotiation on a
// node and silent packet drop on one uplink. Severity controls whether the
// slowdown crosses C4D's kappa=2 detection threshold.
func degradeSweep() Campaign {
	return Campaign{
		Name:        "degrade-sweep",
		Description: "NIC bandwidth degradation and silent packet drop, severity sweep",
		Paper:       "slowdowns beyond kappa=2 are localized to the NIC/link; milder ones sail under",
		Horizon:     campaignHorizon,
		Gen: func(seed int64) []Trial {
			var trials []Trial
			for _, sev := range []float64{0.5, 0.75, 0.9} {
				for _, pl := range []Placement{Spread, Packed} {
					jobN := 16
					if pl == Packed {
						jobN = 8
					}
					trials = append(trials, Trial{
						ID:   fmt.Sprintf("nic-s%02.0f-%s", sev*100, pl),
						JobN: jobN, Spines: 8, Placement: pl,
						Specs: []Spec{{
							Kind: NICDegrade, Rail: 0, Node: 5,
							Severity: sev, Start: faultStart, Duration: faultSpan,
						}},
					})
				}
			}
			for _, loss := range []float64{0.3, 0.6, 0.9} {
				trials = append(trials, Trial{
					ID:   fmt.Sprintf("drop-l%02.0f-spread", loss*100),
					JobN: 16, Spines: 8, Placement: Spread,
					Specs: []Spec{{
						Kind: PacketDrop, Rail: 0, Plane: 0, Group: 0, Uplink: 3,
						Severity: loss, Start: faultStart, Duration: faultSpan,
					}},
				})
			}
			return trials
		},
		Check: func(r *Result) error {
			agg := r.Aggregate()
			if agg.Precision() < 0.7 {
				return fmt.Errorf("degrade-sweep: precision %.2f, want >=0.7", agg.Precision())
			}
			// Severe faults must be caught even if mild ones sail under kappa.
			hi := 0
			for _, tr := range r.Trials {
				if tr.Score.Relevant > 0 && tr.Score.Detected == tr.Score.Relevant &&
					(tr.ID == "nic-s90-spread" || tr.ID == "nic-s90-packed" || tr.ID == "drop-l90-spread") {
					hi++
				}
			}
			if hi < 3 {
				return fmt.Errorf("degrade-sweep: only %d/3 severe trials fully detected", hi)
			}
			return nil
		},
	}
}

// outageSweep takes spines out — singly, overlapping on the same spine
// (a fault injected into an already-failed switch), overlapping across two
// spines, and at two fabric scales.
func outageSweep() Campaign {
	outage := func(spine int, start, span sim.Time) Spec {
		return Spec{Kind: SpineOutage, Rail: 0, Spine: spine, Start: start, Duration: span}
	}
	return Campaign{
		Name:        "outage-sweep",
		Description: "spine outages: single, overlapping, double, across fabric scales",
		Paper:       "a dead spine stalls pinned routes for minutes; dynamic re-placement hides it",
		Horizon:     campaignHorizon,
		Gen: func(seed int64) []Trial {
			return []Trial{
				{ID: "outage-x8-spread", JobN: 16, Spines: 8, Placement: Spread,
					Specs: []Spec{outage(1, faultStart, 120*sim.Second)}},
				{ID: "outage-x4-spread", JobN: 16, Spines: 4, Placement: Spread,
					Specs: []Spec{outage(1, faultStart, 120*sim.Second)}},
				// A second outage lands on the already-failed spine: the link
				// must stay down until both clear.
				{ID: "outage-refail", JobN: 16, Spines: 8, Placement: Spread,
					Specs: []Spec{
						outage(1, faultStart, 120*sim.Second),
						outage(1, faultStart+60*sim.Second, 120*sim.Second),
					}},
				{ID: "outage-two-spines", JobN: 16, Spines: 8, Placement: Spread,
					Specs: []Spec{
						outage(1, faultStart, 120*sim.Second),
						outage(3, faultStart+60*sim.Second, 120*sim.Second),
					}},
				{ID: "outage-job8", JobN: 8, Spines: 8, Placement: Spread,
					Specs: []Spec{outage(1, faultStart, 120*sim.Second)}},
				{ID: "outage-job32", JobN: 32, Spines: 8, Placement: Spread,
					Specs: []Spec{outage(1, faultStart, 120*sim.Second)}},
			}
		},
		Check: func(r *Result) error {
			agg := r.Aggregate()
			if agg.Recall() < 0.9 {
				return fmt.Errorf("outage-sweep: recall %.2f, want >=0.9", agg.Recall())
			}
			if d := r.GoodputDelta(); d < 0.2 {
				return fmt.Errorf("outage-sweep: steering goodput delta %+.2f, want >=+0.2", d)
			}
			return nil
		},
	}
}

// stragglerSweep slows one node's compute. The network is blameless, so
// C4D must localize via receiver-driven wait chains, and recovery needs
// node replacement (C4P rerouting cannot help).
func stragglerSweep() Campaign {
	return Campaign{
		Name:        "straggler-sweep",
		Description: "straggler compute severity x placement",
		Paper:       "wait-chain aggregation names the slow node; only replacement restores goodput",
		Horizon:     campaignHorizon,
		Gen: func(seed int64) []Trial {
			var trials []Trial
			for _, sev := range []float64{0.4, 0.7, 1.0} {
				for _, pl := range []Placement{Spread, Packed} {
					jobN := 16
					victim := 6
					if pl == Packed {
						jobN = 8
						victim = 3
					}
					trials = append(trials, Trial{
						ID:   fmt.Sprintf("straggler-s%02.0f-%s", sev*100, pl),
						JobN: jobN, Spines: 8, Placement: pl,
						Specs: []Spec{{
							Kind: Straggler, Node: victim,
							Severity: sev, Start: faultStart, Duration: faultSpan,
						}},
					})
				}
			}
			return trials
		},
		Check: func(r *Result) error {
			agg := r.Aggregate()
			if agg.Recall() < 0.8 {
				return fmt.Errorf("straggler-sweep: recall %.2f, want >=0.8", agg.Recall())
			}
			if d := r.GoodputDelta(); d < 0.05 {
				return fmt.Errorf("straggler-sweep: steering goodput delta %+.2f, want >=+0.05", d)
			}
			return nil
		},
	}
}

// DefaultMixedTrials is the historical sample count of campaign/mixed:
// the registry scenario and its bench baseline keep running 8 trials,
// while manifests override the count through Campaign.Trials.
const DefaultMixedTrials = 8

// mixedMonteCarlo draws random fault cocktails — kind, victim, severity,
// timing — from the trial seed: the Monte-Carlo sweep over the full model,
// including overlapping faults of different kinds on shared components.
// The generator is prefix-stable in the trial count: one RNG stream draws
// trials in order, so requesting more trials only appends.
func mixedMonteCarlo() Campaign {
	c := Campaign{
		Name:          "mixed",
		Description:   "Monte-Carlo cocktails of 2-3 random overlapping faults per trial",
		Paper:         "diagnosis and steering hold up under compound fault patterns",
		Horizon:       campaignHorizon,
		DefaultTrials: DefaultMixedTrials,
		GenN: func(seed int64, trials int) []Trial {
			r := sim.NewRand(seed*31 + 7)
			out := make([]Trial, 0, trials)
			for i := 0; i < trials; i++ {
				n := 2 + r.Intn(2)
				specs := make([]Spec, 0, n)
				for k := 0; k < n; k++ {
					start := sim.Time(30+r.Intn(91)) * sim.Second
					span := sim.Time(60+r.Intn(121)) * sim.Second
					switch Kind(r.Intn(5)) {
					case LinkFlap:
						specs = append(specs, Spec{
							Kind: LinkFlap, Rail: 0, Plane: 0, Group: r.Intn(2), Uplink: r.Intn(8),
							Severity: 0.25 + 0.5*r.Float64(),
							Period:   sim.Time(8+r.Intn(17)) * sim.Second,
							Start:    start, Duration: span,
						})
					case NICDegrade:
						specs = append(specs, Spec{
							Kind: NICDegrade, Rail: 0, Node: r.Intn(16),
							Severity: 0.4 + 0.5*r.Float64(), Start: start, Duration: span,
						})
					case SpineOutage:
						specs = append(specs, Spec{
							Kind: SpineOutage, Rail: 0, Spine: r.Intn(8),
							Start: start, Duration: span,
						})
					case Straggler:
						specs = append(specs, Spec{
							Kind: Straggler, Node: r.Intn(16),
							Severity: 0.3 + 0.7*r.Float64(), Start: start, Duration: span,
						})
					case PacketDrop:
						specs = append(specs, Spec{
							Kind: PacketDrop, Rail: 0, Plane: 0, Group: r.Intn(2), Uplink: r.Intn(8),
							Severity: 0.3 + 0.6*r.Float64(), Start: start, Duration: span,
						})
					}
				}
				out = append(out, Trial{
					ID:   fmt.Sprintf("mix-%02d", i),
					JobN: 16, Spines: 8, Placement: Spread, Specs: specs,
				})
			}
			return out
		},
		Check: func(r *Result) error {
			agg := r.Aggregate()
			if agg.Precision() < 0.6 {
				return fmt.Errorf("mixed: precision %.2f, want >=0.6", agg.Precision())
			}
			if agg.Detected == 0 {
				return fmt.Errorf("mixed: nothing detected across %d relevant faults", agg.Relevant)
			}
			if d := r.GoodputDelta(); d < 0 {
				return fmt.Errorf("mixed: steering goodput delta %+.2f, want >=0", d)
			}
			return nil
		},
	}
	c.Gen = func(seed int64) []Trial { return c.GenN(seed, c.DefaultTrials) }
	return c
}
