package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"c4/internal/sim"
)

// miniCampaign is a short two-trial campaign small enough for the race
// detector: one fabric fault, one compute fault, 8-node jobs.
func miniCampaign() Campaign {
	return Campaign{
		Name:        "mini",
		Description: "test campaign",
		Horizon:     90 * sim.Second,
		Gen: func(seed int64) []Trial {
			return []Trial{
				{ID: "mini-flap", JobN: 8, Spines: 8, Placement: Spread,
					Specs: []Spec{{
						Kind: LinkFlap, Rail: 0, Plane: 0, Group: 0, Uplink: 1,
						Severity: 0.5, Period: 10 * sim.Second,
						Start: 15 * sim.Second, Duration: 50 * sim.Second,
					}}},
				{ID: "mini-straggler", JobN: 8, Spines: 8, Placement: Packed,
					Specs: []Spec{{
						Kind: Straggler, Node: 3, Severity: 0.8,
						Start: 15 * sim.Second, Duration: 60 * sim.Second,
					}}},
			}
		},
	}
}

// runMini runs every trial of miniCampaign at a campaign seed, with the
// per-trial seeds the manifest runner derives.
func runMini(seed int64) []TrialResult {
	c := miniCampaign()
	var out []TrialResult
	for i, tr := range c.Gen(seed) {
		out = append(out, RunTrial(tr, TrialSeed(seed, i), c.Horizon))
	}
	return out
}

func TestSameSeedByteIdentical(t *testing.T) {
	a, b := runMini(3), runMini(3)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed diverged:\n%s\nvs:\n%s", aj, bj)
	}
	// And the JSON must round-trip as valid JSON.
	var parsed []map[string]any
	if err := json.Unmarshal(aj, &parsed); err != nil {
		t.Fatalf("trial results JSON invalid: %v", err)
	}
	if len(parsed) != 2 || parsed[0]["id"] != "mini-flap" {
		t.Fatalf("JSON trials = %v", parsed)
	}
}

func TestDifferentSeedsVary(t *testing.T) {
	a, b := runMini(3), runMini(4)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatal("different seeds produced identical trial results")
	}
}

func TestMiniCampaignMeasuresSomething(t *testing.T) {
	trials := runMini(1)
	for _, tr := range trials {
		if tr.BaseIters <= 0 || tr.SteeredIters <= 0 {
			t.Fatalf("trial %s made no progress: %+v", tr.ID, tr)
		}
		if tr.BaseGoodput <= 0 || tr.SteeredGoodput <= 0 {
			t.Fatalf("trial %s has zero goodput: %+v", tr.ID, tr)
		}
		if tr.Events == 0 {
			t.Fatalf("trial %s fired no events", tr.ID)
		}
	}
	// The flap trial crosses the spine layer: it must be relevant, and the
	// pinned arm must suffer relative to the steered arm.
	flap := trials[0]
	if flap.Score.Relevant != 1 {
		t.Fatalf("flap trial relevant=%d, want 1", flap.Score.Relevant)
	}
	if flap.Delta() <= 0 {
		t.Fatalf("flap trial delta %+.2f, want steering to win: %+v", flap.Delta(), flap)
	}
	if agg := Aggregate(trials); agg.Relevant != 2 || agg.Detected == 0 {
		t.Fatalf("pooled score %+v, want 2 relevant faults and a detection", agg)
	}
}

// TestPooledFormulas pins the campaign-level formulas on hand-made
// trials: confusion counts add up, and the goodput delta pools only the
// trials with a relevant fault.
func TestPooledFormulas(t *testing.T) {
	trials := []TrialResult{
		{Score: Score{Events: 2, TP: 1, FP: 1, Relevant: 1, Detected: 1}, BaseGoodput: 40, SteeredGoodput: 60},
		{Score: Score{Events: 1, TP: 1}, BaseGoodput: 10, SteeredGoodput: 90},
		{Score: Score{Relevant: 2, Detected: 1}, BaseGoodput: 60, SteeredGoodput: 90},
	}
	agg := Aggregate(trials)
	if agg.Events != 3 || agg.TP != 2 || agg.FP != 1 || agg.Relevant != 3 || agg.Detected != 2 {
		t.Fatalf("Aggregate = %+v", agg)
	}
	// (60+90)/(40+60) - 1: the irrelevant trial's +800% must not count.
	if d := GoodputDelta(trials); d != 0.5 {
		t.Fatalf("GoodputDelta = %v, want 0.5", d)
	}
	if d := GoodputDelta(trials[1:2]); d != 0 {
		t.Fatalf("GoodputDelta with no relevant trial = %v, want 0", d)
	}
	if agg := Aggregate(nil); agg != (Score{}) {
		t.Fatalf("Aggregate(nil) = %+v", agg)
	}
}

func TestLayouts(t *testing.T) {
	cases := []struct {
		tr        Trial
		wantNodes []int
		primaries int
	}{
		{Trial{JobN: 8, Placement: Packed}, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8},
		{Trial{JobN: 8, Placement: Spread}, []int{0, 8, 1, 9, 2, 10, 3, 11}, 16},
		{Trial{JobN: 16, Placement: Spread}, []int{0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15}, 16},
	}
	for _, c := range cases {
		lay := layout(c.tr)
		if lay.primaries != c.primaries {
			t.Errorf("%d/%v: primaries %d, want %d", c.tr.JobN, c.tr.Placement, lay.primaries, c.primaries)
		}
		if lay.fabricNodes != c.primaries+spareNodes {
			t.Errorf("%d/%v: fabric %d, want %d", c.tr.JobN, c.tr.Placement, lay.fabricNodes, c.primaries+spareNodes)
		}
		if len(lay.jobNodes) != len(c.wantNodes) {
			t.Fatalf("%d/%v: nodes %v", c.tr.JobN, c.tr.Placement, lay.jobNodes)
		}
		for i, n := range c.wantNodes {
			if lay.jobNodes[i] != n {
				t.Fatalf("%d/%v: nodes %v, want %v", c.tr.JobN, c.tr.Placement, lay.jobNodes, c.wantNodes)
			}
		}
	}
	// 32-node spread interleaves four groups.
	lay := layout(Trial{JobN: 32, Placement: Spread})
	if lay.primaries != 32 || lay.jobNodes[1] != 8 || lay.jobNodes[2] != 16 || lay.jobNodes[3] != 24 {
		t.Fatalf("32-node layout: %+v", lay)
	}
}

func TestCampaignRegistryDefinitions(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Campaigns() {
		if c.Name == "" || c.Description == "" || c.Paper == "" {
			t.Errorf("campaign %q missing metadata", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate campaign %q", c.Name)
		}
		seen[c.Name] = true
		if c.Gen == nil || c.Horizon <= 0 {
			t.Errorf("campaign %q has no generator or horizon", c.Name)
		}
		// Generators must be deterministic and produce valid trials.
		a, b := c.Gen(1), c.Gen(1)
		if len(a) == 0 || len(a) != len(b) {
			t.Errorf("campaign %q generator unstable: %d vs %d trials", c.Name, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || len(a[i].Specs) != len(b[i].Specs) {
				t.Errorf("campaign %q trial %d differs across equal seeds", c.Name, i)
			}
		}
	}
	for _, name := range []string{"flap-sweep", "degrade-sweep", "outage-sweep", "straggler-sweep", "mixed"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("campaign %q not defined", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName found a campaign that does not exist")
	}
}

// TestMixedTrialSpecsValid arms every generated mixed-campaign spec on a
// real fabric: random draws must always produce valid targets.
func TestMixedTrialSpecsValid(t *testing.T) {
	c, _ := ByName("mixed")
	for _, seed := range []int64{1, 2, 99} {
		for _, tr := range c.Gen(seed) {
			eng, net, top := testRig()
			inj := NewInjector(eng, net, top)
			inj.SetStraggler = func(int, sim.Time) {}
			for _, s := range tr.Specs {
				if err := inj.Arm(s); err != nil {
					t.Fatalf("seed %d trial %s: %v", seed, tr.ID, err)
				}
			}
			eng.RunUntil(10 * sim.Minute)
			// Every link must be restored once all faults cleared.
			for _, l := range top.Links {
				if !l.Up() {
					t.Fatalf("seed %d trial %s: link %s left down", seed, tr.ID, l.Name)
				}
				if net.LinkLoss(l) != 0 {
					t.Fatalf("seed %d trial %s: link %s left lossy", seed, tr.ID, l.Name)
				}
			}
		}
	}
}

// TestTrialsKnob pins the trial-count override: sampled families scale
// up prefix-stably (the first k trials of a larger draw are the default
// draw, so existing baselines never move), fixed grids refuse the knob.
func TestTrialsKnob(t *testing.T) {
	mixed, _ := ByName("mixed")
	if mixed.GenN == nil || mixed.DefaultTrials != DefaultMixedTrials {
		t.Fatalf("mixed: GenN=%v DefaultTrials=%d, want sampled family with default %d",
			mixed.GenN != nil, mixed.DefaultTrials, DefaultMixedTrials)
	}
	def := mixed.Gen(3)
	if len(def) != DefaultMixedTrials {
		t.Fatalf("mixed default draw: %d trials, want %d", len(def), DefaultMixedTrials)
	}
	big, err := mixed.Trials(3, 20)
	if err != nil {
		t.Fatalf("Trials(3, 20): %v", err)
	}
	if len(big) != 20 {
		t.Fatalf("Trials(3, 20): %d trials", len(big))
	}
	for i, tr := range def {
		if big[i].ID != tr.ID || len(big[i].Specs) != len(tr.Specs) {
			t.Fatalf("trial %d not prefix-stable: %q vs %q", i, big[i].ID, tr.ID)
		}
		for j := range tr.Specs {
			if big[i].Specs[j] != tr.Specs[j] {
				t.Fatalf("trial %d spec %d drifted under a larger draw", i, j)
			}
		}
	}
	if same, err := mixed.Trials(3, 0); err != nil || len(same) != DefaultMixedTrials {
		t.Fatalf("Trials(3, 0) = %d trials, err %v; want the default draw", len(same), err)
	}

	fixed, _ := ByName("flap-sweep")
	if _, err := fixed.Trials(1, 9); err == nil {
		t.Fatal("fixed-grid family accepted a trial-count override")
	}
	if grid, err := fixed.Trials(1, 0); err != nil || len(grid) != len(fixed.Gen(1)) {
		t.Fatalf("fixed-grid Trials(1, 0) = %d trials, err %v", len(grid), err)
	}
}
