// Package campaign is the scale-out experiment runner of the C4
// reproduction: manifest-driven Monte-Carlo campaigns sharded across
// processes (or machines) with a deterministic merge.
//
// A manifest is a small versioned JSON document naming fault-campaign
// families (internal/faults), seed ranges, trial counts and knob grids.
// Expansion turns it into a numbered trial list — deterministically, so
// every process holding the same manifest agrees on what trial i is and
// which seed it runs under. A shard executes the stride i, i+n, i+2n, ...
// of that list on the existing faults.Trial machinery and emits a
// partial-result artifact stamped with the manifest's content hash; the
// reducer merges partials into output byte-identical to a serial
// single-shard run, computing mean/stddev and seeded bootstrap confidence
// intervals over the per-trial statistics. Interrupted shards resume from
// a per-shard checkpoint file, re-running only missing trials.
//
// It is the one campaign engine: the registry's campaign/* rows run their
// family as a one-entry manifest through ShardRun and Merge in process,
// and `c4 campaign` scales the same families to 10k-trial manifests with
// fleet-scale statistics and confidence intervals instead of single seeds.
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"c4/internal/faults"
	"c4/internal/sim"
)

// Version is the manifest schema version this package reads and writes.
const Version = 1

// Manifest is the versioned experiment description. Everything a run
// produces derives deterministically from this document plus the shard
// coordinates, which is why its content hash stamps every artifact.
type Manifest struct {
	// Version pins the schema; readers refuse other versions.
	Version int `json:"version"`
	// Name labels the experiment in artifacts and reports.
	Name string `json:"name"`
	// Seed is the root seed: the default campaign seed when an entry has
	// no seed range, and the seed of the merge-time bootstrap RNG. An
	// absent seed defaults to 1; an explicit 0 stays 0.
	Seed *int64 `json:"seed,omitempty"`
	// Entries are the campaign instantiations; expansion concatenates
	// them in order.
	Entries []Entry `json:"entries"`
}

// Entry instantiates one fault-campaign family across a seed range and a
// knob grid.
type Entry struct {
	// Family is the faults campaign short name ("mixed", "flap-sweep", ...).
	Family string `json:"family"`
	// Trials overrides the family's sample count (sampled families only;
	// 0 keeps the family default). This is the 10k knob.
	Trials int `json:"trials,omitempty"`
	// HorizonS overrides the campaign horizon in virtual seconds (0 keeps
	// the family default). Shorter horizons buy trial volume.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Seeds runs the instantiation once per seed in [From, From+Count).
	// Nil means one instance at the manifest seed.
	Seeds *SeedRange `json:"seeds,omitempty"`
	// Knobs is the override grid; the entry expands once per combination
	// (cartesian product in listed order).
	Knobs Knobs `json:"knobs,omitempty"`
}

// SeedRange is a contiguous range of campaign seeds.
type SeedRange struct {
	From  int64 `json:"from"`
	Count int   `json:"count"`
}

// Knobs are the trial-field override axes. An empty axis keeps the
// generated value; a non-empty axis multiplies the grid.
type Knobs struct {
	// Placement overrides the placement policy: "spread" or "packed".
	Placement []string `json:"placement,omitempty"`
	// Spines overrides the spine count (8 = 1:1 fabric, 4 = 2:1).
	Spines []int `json:"spines,omitempty"`
	// JobN overrides the job size in nodes.
	JobN []int `json:"job_n,omitempty"`
}

// axes returns the grid as (label, apply) combinations, cartesian over
// the specified axes in listed order. An all-empty Knobs yields the
// single identity combination with an empty label.
func (k Knobs) axes() []knobCombo {
	combos := []knobCombo{{}}
	expand := func(n int, f func(i int, c knobCombo) knobCombo) {
		if n == 0 {
			return
		}
		next := make([]knobCombo, 0, len(combos)*n)
		for _, c := range combos {
			for i := 0; i < n; i++ {
				next = append(next, f(i, c))
			}
		}
		combos = next
	}
	expand(len(k.Placement), func(i int, c knobCombo) knobCombo {
		pl, _ := ParsePlacement(k.Placement[i])
		c.placement = &pl
		c.label = appendLabel(c.label, "placement="+k.Placement[i])
		return c
	})
	expand(len(k.Spines), func(i int, c knobCombo) knobCombo {
		s := k.Spines[i]
		c.spines = &s
		c.label = appendLabel(c.label, fmt.Sprintf("spines=%d", s))
		return c
	})
	expand(len(k.JobN), func(i int, c knobCombo) knobCombo {
		n := k.JobN[i]
		c.jobN = &n
		c.label = appendLabel(c.label, fmt.Sprintf("job_n=%d", n))
		return c
	})
	return combos
}

type knobCombo struct {
	label     string
	placement *faults.Placement
	spines    *int
	jobN      *int
}

func appendLabel(label, term string) string {
	if label == "" {
		return term
	}
	return label + "," + term
}

// ParsePlacement maps the manifest placement knob onto faults.Placement.
func ParsePlacement(s string) (faults.Placement, error) {
	switch s {
	case "spread":
		return faults.Spread, nil
	case "packed":
		return faults.Packed, nil
	}
	return 0, fmt.Errorf("campaign: unknown placement %q (want spread or packed)", s)
}

// decodeDocument decodes the one JSON document a reader holds: anything
// but whitespace after it is an error, so a concatenated or corrupted
// file is refused rather than read up to its first value.
func decodeDocument(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the JSON document, which ends at byte %d", end)
	}
	return nil
}

// ReadManifest parses, normalizes and validates a manifest document.
func ReadManifest(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := decodeDocument(dec, &m); err != nil {
		return nil, fmt.Errorf("campaign: bad manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// Validate checks the manifest against the schema and the campaign
// registry, applying defaults (Seed, seed ranges) in place so equal
// manifests normalize to equal hashes.
func (m *Manifest) Validate() error {
	if m.Version != Version {
		return fmt.Errorf("campaign: manifest version %d, this build reads version %d", m.Version, Version)
	}
	if m.Name == "" {
		return fmt.Errorf("campaign: manifest has no name")
	}
	if m.Seed == nil {
		one := int64(1)
		m.Seed = &one
	}
	if len(m.Entries) == 0 {
		return fmt.Errorf("campaign: manifest %s has no entries", m.Name)
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		c, ok := faults.ByName(e.Family)
		if !ok {
			return fmt.Errorf("campaign: entry %d: unknown family %q (have: %s)",
				i, e.Family, strings.Join(familyNames(), ", "))
		}
		if e.Trials < 0 {
			return fmt.Errorf("campaign: entry %d (%s): negative trial count %d", i, e.Family, e.Trials)
		}
		if e.Trials > 0 && c.GenN == nil {
			return fmt.Errorf("campaign: entry %d: family %s is a fixed grid; it does not take a trial-count override",
				i, e.Family)
		}
		if e.HorizonS < 0 {
			return fmt.Errorf("campaign: entry %d (%s): negative horizon %v", i, e.Family, e.HorizonS)
		}
		if e.Seeds == nil {
			e.Seeds = &SeedRange{From: *m.Seed, Count: 1}
		}
		if e.Seeds.Count <= 0 {
			return fmt.Errorf("campaign: entry %d (%s): seed range count %d, want >= 1", i, e.Family, e.Seeds.Count)
		}
		for _, p := range e.Knobs.Placement {
			if _, err := ParsePlacement(p); err != nil {
				return fmt.Errorf("campaign: entry %d (%s): %w", i, e.Family, err)
			}
		}
		for _, s := range e.Knobs.Spines {
			if s <= 0 {
				return fmt.Errorf("campaign: entry %d (%s): spines %d, want > 0", i, e.Family, s)
			}
		}
		for _, n := range e.Knobs.JobN {
			if n <= 0 {
				return fmt.Errorf("campaign: entry %d (%s): job_n %d, want > 0", i, e.Family, n)
			}
		}
	}
	return nil
}

func familyNames() []string {
	var names []string
	for _, c := range faults.Campaigns() {
		names = append(names, c.Name)
	}
	return names
}

// Hash is the manifest's content hash: SHA-256 over the canonical JSON
// encoding of the normalized document. Every artifact a run emits is
// stamped with it, and the reducer refuses to merge partials whose
// hashes disagree — results from different experiments (or different
// revisions of one) must never silently mix. Hashing the normalized
// struct rather than the file bytes makes the stamp robust to
// whitespace and key order.
func (m *Manifest) Hash() string {
	b, err := json.Marshal(m)
	if err != nil {
		// Manifest is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("campaign: hashing manifest: %v", err))
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(b))
}

// TrialSpec is one expanded, numbered trial: everything a shard needs to
// execute it and everything the merge needs to attribute it.
type TrialSpec struct {
	// Index is the global 0-based trial number; shard i of n owns the
	// indices congruent to i mod n.
	Index int
	// Family and Seed name the campaign instance the trial came from;
	// Knobs is the override-combination label ("" when the entry has no
	// knob grid).
	Family string
	Seed   int64
	Knobs  string
	// TrialSeed is the derived per-trial root seed,
	// faults.TrialSeed(Seed, i) for the instance's i-th trial.
	TrialSeed int64
	// Horizon is the resolved virtual-time horizon.
	Horizon sim.Time
	// Trial is the fully resolved fault trial.
	Trial faults.Trial
}

// Run executes the trial's two arms on the faults machinery.
func (ts TrialSpec) Run() faults.TrialResult {
	return faults.RunTrial(ts.Trial, ts.TrialSeed, ts.Horizon)
}

// Expand turns the manifest into its numbered trial list. The expansion
// is pure: entries in order, seeds ascending, knob combinations in
// listed order, trials in generation order — so every holder of an
// equal-hash manifest derives the identical list. It validates (and so
// normalizes) the manifest first, so a manifest built in Go expands
// exactly like the same document read through ReadManifest, and it arms
// nothing it cannot run: every trial's fault specs must fit the fabric
// the trial builds.
func (m *Manifest) Expand() ([]TrialSpec, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var out []TrialSpec
	for ei, e := range m.Entries {
		fam, _ := faults.ByName(e.Family)
		horizon := fam.Horizon
		if e.HorizonS > 0 {
			horizon = sim.FromSeconds(e.HorizonS)
		}
		for s := 0; s < e.Seeds.Count; s++ {
			seed := e.Seeds.From + int64(s)
			trials, err := fam.Trials(seed, e.Trials)
			if err != nil {
				return nil, fmt.Errorf("campaign: entry %d: %w", ei, err)
			}
			for _, combo := range e.Knobs.axes() {
				for ti, tr := range trials {
					if combo.placement != nil {
						tr.Placement = *combo.placement
					}
					if combo.spines != nil {
						tr.Spines = *combo.spines
					}
					if combo.jobN != nil {
						tr.JobN = *combo.jobN
					}
					fabric := tr.Fabric()
					for _, s := range tr.Specs {
						if err := s.Validate(fabric); err != nil {
							return nil, fmt.Errorf("campaign: entry %d (%s), trial %d (%s, knobs %q): %v: %w",
								ei, e.Family, len(out), tr.ID, combo.label, s, err)
						}
					}
					out = append(out, TrialSpec{
						Index:     len(out),
						Family:    e.Family,
						Seed:      seed,
						Knobs:     combo.label,
						TrialSeed: faults.TrialSeed(seed, ti),
						Horizon:   horizon,
						Trial:     tr,
					})
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: manifest %s expands to zero trials", m.Name)
	}
	return out, nil
}
