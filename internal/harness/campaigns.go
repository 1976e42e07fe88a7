package harness

import (
	"fmt"
	"strings"

	"c4/internal/campaign"
	"c4/internal/faults"
	"c4/internal/metrics"
	"c4/internal/scenario"
)

// registerCampaigns registers the fault-injection campaigns, sweeps that
// score C4D diagnosis and C4P steering, as "campaign/<name>", after the
// paper experiments (register.go calls it last). The row at seed s runs
// the one-entry manifest {family, seeds: {from: s, count: 1}} as one shard
// merged in process: its report is what `c4 campaign run` + `merge` write.
func registerCampaigns() {
	for _, c := range faults.Campaigns() {
		scenario.Register(scenario.Scenario{
			Name:        "campaign/" + c.Name,
			Group:       "campaign",
			Description: c.Description,
			Paper:       c.Paper,
			Slow:        true, // dozens of trials, two arms each
			Params:      map[string]string{"trials": fmt.Sprint(len(c.Gen(1))), "horizon": c.Horizon.String()},
			Run:         func(ctx *scenario.Ctx) scenario.Result { return runCampaign(ctx, c) },
			Summarize: func(r scenario.Result) string {
				agg := r.(*CampaignResult).Summary.Aggregate
				return fmt.Sprintf("P=%.2f R=%.2f rca=%.2f, steering %+.1f%%",
					agg["precision"], agg["recall"], agg["rca_accuracy"], agg["goodput_delta"]*100)
			},
			Metrics: func(r scenario.Result) map[string]float64 { return r.(*CampaignResult).Summary.Aggregate },
		})
	}
}

// CampaignResult is a campaign row's merged report, rendered per trial.
type CampaignResult struct {
	*campaign.Merged
	family faults.Campaign
	seed   int64
	trials []faults.TrialResult // the records' results, in trial order
	events uint64
}

// runCampaign runs family c's one-entry manifest at the context's seed. A
// failed run panics, so the scenario runner reports the row as failed.
func runCampaign(ctx *scenario.Ctx, c faults.Campaign) *CampaignResult {
	seed := ctx.Seed
	m := &campaign.Manifest{Version: campaign.Version, Name: c.Name, Seed: &seed,
		Entries: []campaign.Entry{{Family: c.Name, Seeds: &campaign.SeedRange{From: seed, Count: 1}}}}
	p, err := (&campaign.ShardRun{Manifest: m, Of: 1, Workers: ctx.Workers}).Run()
	var merged *campaign.Merged
	if err == nil {
		merged, err = campaign.Merge([]*campaign.Partial{p})
	}
	if err != nil {
		panic(err)
	}
	res := &CampaignResult{Merged: merged, family: c, seed: ctx.Seed}
	for _, r := range merged.Records {
		res.trials = append(res.trials, r.Result)
		res.events += r.Result.Events
	}
	ctx.Track(res)
	return res
}

// Fired implements scenario.EventCounter: events across every trial's engines.
func (r *CampaignResult) Fired() uint64 { return r.events }

// String renders the per-trial table plus the aggregate line.
func (r *CampaignResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign %s — %d trials, horizon %v, seed %d\n",
		r.family.Name, len(r.trials), r.family.Horizon, r.seed)
	rows := make([][]string, 0, len(r.trials))
	for _, tr := range r.trials {
		rca := "-"
		if tr.Score.RCAEvents > 0 {
			rca = fmt.Sprintf("%.2f", tr.Score.RCAAccuracy())
		}
		rows = append(rows, []string{
			tr.ID,
			fmt.Sprintf("%d/%d", tr.Score.Relevant, tr.Faults),
			fmt.Sprintf("%.2f", tr.Score.Precision()),
			fmt.Sprintf("%.2f", tr.Score.Recall()),
			rca,
			fmt.Sprintf("%.1f", tr.BaseGoodput),
			fmt.Sprintf("%.1f", tr.SteeredGoodput),
			fmt.Sprintf("%+.1f%%", tr.Delta()*100),
		})
	}
	sb.WriteString(metrics.Table(
		[]string{"trial", "rel", "P", "R", "rca", "pinned", "steered", "delta"}, rows))
	agg := r.Summary.Aggregate
	fmt.Fprintf(&sb, "aggregate: precision %.2f, recall %.2f, rca %.2f, steering goodput %+.1f%%\n",
		agg["precision"], agg["recall"], agg["rca_accuracy"], agg["goodput_delta"]*100)
	return sb.String()
}

// CheckShape validates the merged report, then the family's own claims.
func (r *CampaignResult) CheckShape() error {
	if err := r.Check(); err != nil || r.family.Check == nil {
		return err
	}
	return r.family.Check(r.trials)
}
