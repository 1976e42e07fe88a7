package faults

import (
	"bytes"
	"encoding/json"
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

// TestSerialMatchesParallel is the campaign-runner replay contract: the
// same seed must produce a byte-identical report whether trials run on one
// worker or many (run with -race to also prove the pool shares no state).
func TestSerialMatchesParallel(t *testing.T) {
	c := miniCampaign()
	serial := c.Run(7, 1)
	parallel := c.Run(7, 4)
	if s, p := serial.String(), parallel.String(); s != p {
		t.Fatalf("parallel campaign diverged from serial:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	if serial.Fired() == 0 {
		t.Fatal("campaign fired no events")
	}
}

func TestSameSeedByteIdentical(t *testing.T) {
	c := miniCampaign()
	a, b := c.Run(3, 0), c.Run(3, 0)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\nvs:\n%s", a, b)
	}
	var aj, bj bytes.Buffer
	if err := a.WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if aj.String() != bj.String() {
		t.Fatal("same seed produced different JSON reports")
	}
	// And the JSON must round-trip as valid JSON.
	var parsed map[string]any
	if err := json.Unmarshal(aj.Bytes(), &parsed); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if parsed["name"] != "mini" {
		t.Fatalf("JSON name = %v", parsed["name"])
	}
}

func TestDifferentSeedsVary(t *testing.T) {
	c := miniCampaign()
	a, b := c.Run(3, 0), c.Run(4, 0)
	if a.String() == b.String() {
		t.Fatal("different seeds produced identical campaign reports")
	}
}

func TestMiniCampaignMeasuresSomething(t *testing.T) {
	res := miniCampaign().Run(1, 0)
	if err := res.CheckShape(); err != nil {
		t.Fatalf("shape: %v\n%s", err, res)
	}
	for _, tr := range res.Trials {
		if tr.BaseGoodput <= 0 || tr.SteeredGoodput <= 0 {
			t.Fatalf("trial %s has zero goodput:\n%s", tr.ID, res)
		}
	}
	// The flap trial crosses the spine layer: it must be relevant, and the
	// pinned arm must suffer relative to the steered arm.
	flap := res.Trials[0]
	if flap.Score.Relevant != 1 {
		t.Fatalf("flap trial relevant=%d, want 1", flap.Score.Relevant)
	}
	if flap.Delta() <= 0 {
		t.Fatalf("flap trial delta %+.2f, want steering to win:\n%s", flap.Delta(), res)
	}
	m := res.Metrics()
	for _, key := range []string{"precision", "recall", "rca_accuracy", "goodput_delta"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("Metrics() missing %q", key)
		}
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
