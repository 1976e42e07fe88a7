package harness

import (
	"fmt"

	"c4/internal/scenario"
)

// This file registers every experiment of the reproduction as a named
// scenario. Importing the harness package is enough to populate the
// registry; `c4 bench`, `c4 analyze -demo` and c4.Session run
// experiments exclusively through it, and the harness tests prove that the
// parallel runner reproduces a serial sweep byte for byte.

func init() {
	reg := scenario.Register

	reg(scenario.Scenario{
		Name: "tableI", Group: "table",
		Description: "crash-cause distribution of a month of a 4096-GPU job",
		Paper:       "82.5% of failures are node-local and isolatable",
		Run:         func(c *scenario.Ctx) scenario.Result { return runTableI(c) },
		Summarize: func(r scenario.Result) string {
			t := r.(TableIResult)
			return fmt.Sprintf("%.1f%% local of %d crashes", t.LocalFraction()*100, t.Total)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			t := r.(TableIResult)
			return map[string]float64{"local_frac": t.LocalFraction(), "crashes": float64(t.Total)}
		},
	})
	reg(scenario.Scenario{
		Name: "tableIII", Group: "table",
		Description: "error-induced downtime before (manual ops) and after C4D",
		Paper:       "≈31% downtime before, ≈1.2% after (≈30x reduction)",
		Run:         func(c *scenario.Ctx) scenario.Result { return runTableIII(c) },
		Summarize: func(r scenario.Result) string {
			t := r.(TableIIIResult)
			return fmt.Sprintf("%.1f%% -> %.2f%% (%.0fx)",
				t.Jun.Total()*100, t.Dec.Total()*100, t.Jun.Total()/t.Dec.Total())
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			t := r.(TableIIIResult)
			return map[string]float64{"jun_downtime": t.Jun.Total(), "dec_downtime": t.Dec.Total()}
		},
	})
	reg(scenario.Scenario{
		Name: "fig3", Group: "figure", Slow: true,
		Description: "GPT-22B throughput vs ideal linear scaling, 16-512 GPUs on ECMP",
		Paper:       "loss vs ideal grows with scale, ≈30% at 512 GPUs",
		Run:         func(c *scenario.Ctx) scenario.Result { return runFig3(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(Fig3Result)
			n := len(f.GPUs) - 1
			return fmt.Sprintf("%.0f%% loss at %d GPUs", (1-f.Actual[n]/f.Ideal[n])*100, f.GPUs[n])
		},
	})
	reg(scenario.Scenario{
		Name: "fig9", Group: "figure",
		Description: "single-job allreduce busbw with/without dual-port balance, 16-128 GPUs",
		Paper:       "baseline stuck below line rate, C4P ≈360 Gbps (~+50%)",
		Run:         func(c *scenario.Ctx) scenario.Result { return runFig9(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(Fig9Result)
			n := len(f.GPUs) - 1
			return fmt.Sprintf("%.0f vs %.0f Gbps at %d GPUs", f.Baseline[n], f.C4P[n], f.GPUs[n])
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			f := r.(Fig9Result)
			n := len(f.GPUs) - 1
			return map[string]float64{"baseline_gbps": f.Baseline[n], "c4p_gbps": f.C4P[n]}
		},
	})
	for _, v := range []struct {
		name    string
		spines  int
		oversub string
		paper   string
	}{
		{"fig10a", 8, "1:1", "+70.3% aggregate gain over ECMP at 1:1"},
		{"fig10b", 4, "2:1", "+65.55% aggregate gain over ECMP at 2:1"},
	} {
		spines := v.spines
		reg(scenario.Scenario{
			Name: v.name, Group: "figure", Slow: true,
			Description: "8 concurrent cross-leaf allreduce jobs at " + v.oversub + " oversubscription",
			Paper:       v.paper,
			Params:      map[string]string{"spines": fmt.Sprint(spines), "oversub": v.oversub},
			Run:         func(c *scenario.Ctx) scenario.Result { return runFig10(c, spines) },
			Summarize: func(r scenario.Result) string {
				return fmt.Sprintf("%+.1f%% aggregate gain", r.(Fig10Result).AvgGain*100)
			},
		})
	}
	reg(scenario.Scenario{
		Name: "fig11", Group: "figure", Slow: true,
		Description: "per-bonded-port CNP rates during the 2:1 oversubscription run",
		Paper:       "≈15k CNPs/s per bonded port, fluctuating 12.5k-17.5k",
		Run:         func(c *scenario.Ctx) scenario.Result { return runFig11(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(Fig11Result)
			return fmt.Sprintf("mean %.0f CNP/s [%.0f, %.0f]", f.Mean, f.Min, f.Max)
		},
	})
	reg(scenario.Scenario{
		Name: "fig12", Group: "figure", Slow: true,
		Description: "mid-run link failure: static traffic engineering vs dynamic load balance",
		Paper:       "dynamic recovers near 7/8 ideal, +62.3% over static (301.5 vs 185.8 Gbps)",
		Run:         func(c *scenario.Ctx) scenario.Result { return runFig12(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(Fig12Result)
			return fmt.Sprintf("post-failure %.0f vs %.0f Gbps (%+.1f%%)",
				f.Static.PostFailAvg, f.Dynamic.PostFailAvg,
				(f.Dynamic.PostFailAvg/f.Static.PostFailAvg-1)*100)
		},
	})
	reg(scenario.Scenario{
		Name: "fig13", Group: "figure", Slow: true,
		Description: "leaf uplink bandwidth around the failure: survivor balance",
		Paper:       "static rehash concentrates orphaned traffic; dynamic spreads it evenly",
		Run:         func(c *scenario.Ctx) scenario.Result { return runFig13(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(Fig13Result)
			return fmt.Sprintf("survivor max/mean %.2f static vs %.2f dynamic",
				f.Static.PostImbalance, f.Dynamic.PostImbalance)
		},
	})
	reg(scenario.Scenario{
		Name: "fig14", Group: "figure", Slow: true,
		Description: "end-to-end throughput of three real-life training jobs with/without C4",
		Paper:       "+15.95% (GPT-22B) and +14.1% (Llama-7B); ≈0 for GA=16 GPT-175B",
		Run:         func(c *scenario.Ctx) scenario.Result { return runFig14(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(Fig14Result)
			return fmt.Sprintf("gains %+.1f%% / %+.1f%% / %+.1f%%",
				f.Gains[0]*100, f.Gains[1]*100, f.Gains[2]*100)
		},
	})
	reg(scenario.Scenario{
		Name: "pipeline", Group: "pipeline",
		Description: "live C4D detect -> steering isolate -> restart loop on an injected crash",
		Paper:       "detection within tens of seconds, recovery within minutes",
		Run:         func(c *scenario.Ctx) scenario.Result { return runPipeline(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(PipelineResult)
			return fmt.Sprintf("detect +%v, restart +%v", f.Detection, f.Downtime)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			f := r.(PipelineResult)
			return map[string]float64{
				"detection_s": f.Detection.Seconds(),
				"downtime_s":  f.Downtime.Seconds(),
			}
		},
	})
	reg(scenario.Scenario{
		Name: "nccltest", Group: "bench",
		Description: "nccl-tests-style ring allreduce microbenchmark (8 nodes, C4P)",
		Paper:       "planned paths sustain the ≈360 Gbps NVLink-bounded peak",
		Params:      map[string]string{"nodes": "8", "mib": "512", "iters": "8"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runNCCLTest(c, DefaultNCCLTest()) },
		Summarize: func(r scenario.Result) string {
			return fmt.Sprintf("mean %.1f Gbps", r.(NCCLTestResult).MeanBusGbps())
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return map[string]float64{"busbw_gbps": r.(NCCLTestResult).MeanBusGbps()}
		},
	})
	reg(scenario.Scenario{
		Name: "analyzer-demo", Group: "pipeline",
		Description: "offline C4 Analyzer replay localizing a mid-run Rx degradation",
		Paper:       "archived transport stats localize the faulty NIC post-hoc (Fig 5 workflow)",
		Run:         func(c *scenario.Ctx) scenario.Result { return runAnalyzerDemo(c) },
		Summarize: func(r scenario.Result) string {
			return fmt.Sprintf("%d findings", len(r.(AnalyzerDemoResult).Findings))
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			f := r.(AnalyzerDemoResult)
			return map[string]float64{
				"findings": float64(len(f.Findings)),
				"records":  float64(len(f.Recorder.Messages)),
			}
		},
	})
	reg(scenario.Scenario{
		Name: "ablation-plane", Group: "ablation",
		Description: "C4P with vs without the dual-port plane rule",
		Paper:       "dropping the rule reintroduces the rx-imbalance penalty",
		Run:         func(c *scenario.Ctx) scenario.Result { return runPlaneRuleAblation(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(PlaneRuleAblation)
			return fmt.Sprintf("%.0f with vs %.0f without", f.WithRule, f.WithoutRule)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			f := r.(PlaneRuleAblation)
			return map[string]float64{"with_rule_gbps": f.WithRule, "without_rule_gbps": f.WithoutRule}
		},
	})
	reg(scenario.Scenario{
		Name: "ablation-algo", Group: "ablation",
		Description: "ring vs tree allreduce across message sizes",
		Paper:       "tree wins small (latency-bound), ring wins large (bandwidth-bound)",
		Run:         func(c *scenario.Ctx) scenario.Result { return runAlgoCrossover(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(AlgoCrossover)
			return fmt.Sprintf("crossover between %.2f and %.0f MiB",
				f.SizesMiB[0], f.SizesMiB[len(f.SizesMiB)-1])
		},
	})
	reg(scenario.Scenario{
		Name: "ablation-ckpt", Group: "ablation",
		Description: "checkpoint-interval sweep under the December regime",
		Paper:       "post-checkpoint loss linear in interval, dominates at 160 min",
		Run:         func(c *scenario.Ctx) scenario.Result { return runCkptSweep(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(CkptSweep)
			n := len(f.IntervalsMin) - 1
			return fmt.Sprintf("%.2f%% post-ckpt at %.0f min", f.PostCkptPct[n], f.IntervalsMin[n])
		},
	})
	reg(scenario.Scenario{
		Name: "ablation-kappa", Group: "ablation",
		Description: "C4D comm-slow threshold sweep: false alarms vs detection",
		Paper:       "κ=2 detects 3x faults with ≈0 false alarms",
		Run:         func(c *scenario.Ctx) scenario.Result { return runKappaSweep(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(KappaSweep)
			return fmt.Sprintf("κ=2: %.0f%% det, %.1f%% FP", f.Detected[2]*100, f.FalsePositive[2]*100)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			f := r.(KappaSweep)
			return map[string]float64{"kappa2_detected": f.Detected[2], "kappa2_fp": f.FalsePositive[2]}
		},
	})
	reg(scenario.Scenario{
		Name: "ablation-qp", Group: "ablation",
		Description: "ECMP baseline busbw vs QPs per connection",
		Paper:       "more hash draws per bond smooth collisions",
		Run:         func(c *scenario.Ctx) scenario.Result { return runQPSweep(c) },
		Summarize: func(r scenario.Result) string {
			f := r.(QPSweep)
			n := len(f.QPs) - 1
			return fmt.Sprintf("%.0f Gbps at %d QPs vs %.0f at %d",
				f.Baseline[0], f.QPs[0], f.Baseline[n], f.QPs[n])
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			f := r.(QPSweep)
			n := len(f.QPs) - 1
			return map[string]float64{"qp1_gbps": f.Baseline[0], "qp_max_gbps": f.Baseline[n]}
		},
	})

	registerCampaigns()
	registerTenancy()
	registerOnline()
	registerPlan()
	registerScale()
}
