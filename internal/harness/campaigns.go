package harness

import (
	"fmt"

	"c4/internal/faults"
	"c4/internal/scenario"
)

// This file registers the fault-injection campaigns under
// "campaign/<name>": generated Monte-Carlo/grid sweeps of the fault model
// over topology scale and placement, each scoring C4D diagnosis
// precision/recall against the injected ground truth and the goodput
// delta from C4P steering versus pinned routes. They run through the same
// registry and worker-pool runner as the paper experiments
// (`c4 bench -only 'campaign/*'`), and their aggregate numbers feed the
// bench-regression guard.

// registerCampaigns is invoked at the end of the main registration init
// (register.go) so campaigns list after the paper experiments.
func registerCampaigns() {
	for _, c := range faults.Campaigns() {
		c := c
		scenario.Register(scenario.Scenario{
			Name:        "campaign/" + c.Name,
			Group:       "campaign",
			Description: c.Description,
			Paper:       c.Paper,
			Slow:        true, // dozens of trials, two arms each
			Params: map[string]string{
				"trials":  fmt.Sprint(len(c.Gen(1))),
				"horizon": c.Horizon.String(),
			},
			Run: c.RunScenario,
			Summarize: func(r scenario.Result) string {
				res := r.(*faults.Result)
				agg := res.Aggregate()
				return fmt.Sprintf("P=%.2f R=%.2f rca=%.2f, steering %+.1f%%",
					agg.Precision(), agg.Recall(), agg.RCAAccuracy(), res.GoodputDelta()*100)
			},
			Metrics: func(r scenario.Result) map[string]float64 {
				return r.(*faults.Result).Metrics()
			},
		})
	}
}
