package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"c4/internal/faults"
	"c4/internal/metrics"
	"c4/internal/sim"
)

// Bootstrap parameters of the merge summary. Fixed, not knobs: merged
// artifacts are byte-compared across shardings and re-runs, so the
// resample count and confidence level are part of the format.
const (
	bootResamples = 1000
	bootConf      = 0.95
)

// Stat is one summary statistic over per-trial values: the first two
// moments plus a seeded percentile-bootstrap confidence interval on the
// mean. N is the number of trials the value is defined for.
type Stat struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CILo float64 `json:"ci_lo"`
	CIHi float64 `json:"ci_hi"`
}

// Summary is the fleet-scale statistics block of a merged campaign:
// distributional statistics over per-trial values, plus the exact
// count-based aggregate the in-process campaign reports, so the two
// views can be cross-checked.
type Summary struct {
	// Precision is over trials that emitted at least one finding;
	// Recall over trials with at least one relevant injected fault;
	// RCAAccuracy over trials with at least one classified finding;
	// GoodputDelta over trials with a relevant fault (the irrelevant-
	// fault trials would only dilute the steering signal — the same
	// rule faults.Result.GoodputDelta applies).
	Precision    Stat `json:"precision"`
	Recall       Stat `json:"recall"`
	RCAAccuracy  Stat `json:"rca_accuracy"`
	GoodputDelta Stat `json:"goodput_delta"`
	// Aggregate is the exact pooled view: confusion-count ratios and the
	// goodput-sum delta, as an in-process faults campaign would report.
	Aggregate map[string]float64 `json:"aggregate"`
}

// Merged is the reducer's output artifact: every record of the
// experiment in trial order plus the summary. Byte-identical for any
// sharding of the same manifest.
type Merged struct {
	Version      int      `json:"version"`
	Name         string   `json:"name"`
	ManifestHash string   `json:"manifest_hash"`
	Seed         int64    `json:"seed"`
	Trials       int      `json:"trials"`
	Summary      Summary  `json:"summary"`
	Records      []Record `json:"records"`
}

// WriteJSON emits the canonical indented form.
func (m *Merged) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadMerged parses a merged artifact.
func ReadMerged(r io.Reader) (*Merged, error) {
	var m Merged
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("campaign: bad merged report: %w", err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("campaign: merged report version %d, this build reads version %d", m.Version, Version)
	}
	return &m, nil
}

// LoadMerged reads a merged artifact file.
func LoadMerged(path string) (*Merged, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	m, err := ReadMerged(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// Merge combines shard partials into the experiment's merged artifact.
// It refuses mismatched manifest hashes, duplicate trial indices and
// gaps: the output either covers every expanded trial exactly once or
// the merge fails. The result is a pure function of the record set —
// partials from a 1-shard run and a 4-shard run of the same manifest
// merge to identical bytes.
func Merge(partials []*Partial) (*Merged, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("campaign: nothing to merge")
	}
	ref := partials[0]
	byIndex := map[int]Record{}
	for _, p := range partials {
		if p.ManifestHash != ref.ManifestHash {
			return nil, fmt.Errorf("campaign: manifest hash mismatch: shard %d/%d ran %s, shard %d/%d ran %s",
				ref.Shard, ref.Of, ref.ManifestHash, p.Shard, p.Of, p.ManifestHash)
		}
		if p.Trials != ref.Trials || p.Name != ref.Name || p.Seed != ref.Seed {
			return nil, fmt.Errorf("campaign: partial metadata mismatch: %s/%d trials/seed %d vs %s/%d trials/seed %d",
				ref.Name, ref.Trials, ref.Seed, p.Name, p.Trials, p.Seed)
		}
		for _, r := range p.Records {
			if dup, ok := byIndex[r.Index]; ok {
				return nil, fmt.Errorf("campaign: trial %d appears in more than one partial (%s and %s)",
					r.Index, dup.Result.ID, r.Result.ID)
			}
			if r.Index < 0 || r.Index >= ref.Trials {
				return nil, fmt.Errorf("campaign: trial index %d outside manifest's %d trials", r.Index, ref.Trials)
			}
			byIndex[r.Index] = r
		}
	}
	if len(byIndex) != ref.Trials {
		var missing []string
		for i := 0; i < ref.Trials && len(missing) < 10; i++ {
			if _, ok := byIndex[i]; !ok {
				missing = append(missing, fmt.Sprint(i))
			}
		}
		return nil, fmt.Errorf("campaign: %d of %d trials missing (first: %s); run the absent shards or resume from their checkpoints",
			ref.Trials-len(byIndex), ref.Trials, strings.Join(missing, ", "))
	}
	records := make([]Record, 0, ref.Trials)
	for i := 0; i < ref.Trials; i++ {
		records = append(records, byIndex[i])
	}
	return &Merged{
		Version: Version, Name: ref.Name, ManifestHash: ref.ManifestHash,
		Seed: ref.Seed, Trials: ref.Trials,
		Summary: summarize(records, ref.Seed),
		Records: records,
	}, nil
}

// MergeHash verifies the partials against a manifest before merging —
// the belt-and-braces path the CLI uses when the manifest file is at
// hand.
func MergeHash(m *Manifest, partials []*Partial) (*Merged, error) {
	hash := m.Hash()
	for _, p := range partials {
		if p.ManifestHash != hash {
			return nil, fmt.Errorf("campaign: shard %d/%d ran manifest %s, not %s (%s)",
				p.Shard, p.Of, p.ManifestHash, hash, m.Name)
		}
	}
	return Merge(partials)
}

// summarize computes the statistics block. All inputs arrive in trial
// order and every bootstrap draws from one RNG seeded by the manifest
// seed, consumed in fixed metric order — determinism is load-bearing:
// merged artifacts are byte-compared in CI.
func summarize(records []Record, seed int64) Summary {
	var precision, recall, rcaAcc, delta []float64
	var agg faults.Score
	var base, steered float64
	for _, r := range records {
		sc := r.Result.Score
		agg = agg.Add(sc)
		if sc.Events > 0 {
			precision = append(precision, sc.Precision())
		}
		if sc.Relevant > 0 {
			recall = append(recall, sc.Recall())
			delta = append(delta, r.Result.Delta())
			base += r.Result.BaseGoodput
			steered += r.Result.SteeredGoodput
		}
		if sc.RCAEvents > 0 {
			rcaAcc = append(rcaAcc, sc.RCAAccuracy())
		}
	}
	// The delta is steered/base - 1 when any relevant goodput was
	// measured, 0 otherwise — mirroring faults.Result.GoodputDelta.
	aggDelta := 0.0
	if base > 0 {
		aggDelta = steered/base - 1
	}
	r := sim.NewRand(seed*1_000_003 + 17)
	stat := func(xs []float64) Stat {
		mean, std := metrics.MeanStd(xs)
		lo, hi := metrics.BootstrapCI(xs, bootResamples, bootConf, r)
		return Stat{N: len(xs), Mean: mean, Std: std, CILo: lo, CIHi: hi}
	}
	return Summary{
		Precision:    stat(precision),
		Recall:       stat(recall),
		RCAAccuracy:  stat(rcaAcc),
		GoodputDelta: stat(delta),
		Aggregate: map[string]float64{
			"precision":     agg.Precision(),
			"recall":        agg.Recall(),
			"rca_accuracy":  agg.RCAAccuracy(),
			"goodput_delta": aggDelta,
		},
	}
}

// Check validates a merged artifact's internal consistency: complete
// trial coverage in order, finite summary statistics, well-formed
// intervals. It is the CI gate run by `c4 campaign check`.
func (m *Merged) Check() error {
	if m.Trials != len(m.Records) {
		return fmt.Errorf("campaign: merged report has %d records for %d trials", len(m.Records), m.Trials)
	}
	for i, r := range m.Records {
		if r.Index != i {
			return fmt.Errorf("campaign: record %d has index %d; merged reports are trial-ordered", i, r.Index)
		}
		if r.Result.BaseIters <= 0 || r.Result.SteeredIters <= 0 {
			return fmt.Errorf("campaign: trial %d (%s) made no progress (base %d, steered %d iters)",
				r.Index, r.Result.ID, r.Result.BaseIters, r.Result.SteeredIters)
		}
	}
	for name, st := range map[string]Stat{
		"precision": m.Summary.Precision, "recall": m.Summary.Recall,
		"rca_accuracy": m.Summary.RCAAccuracy, "goodput_delta": m.Summary.GoodputDelta,
	} {
		for field, v := range map[string]float64{
			"mean": st.Mean, "std": st.Std, "ci_lo": st.CILo, "ci_hi": st.CIHi,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("campaign: summary %s.%s is non-finite", name, field)
			}
		}
		if st.CILo > st.CIHi {
			return fmt.Errorf("campaign: summary %s interval inverted (%v > %v)", name, st.CILo, st.CIHi)
		}
		if st.N > 0 && (st.Mean < st.CILo-3*st.Std-1e-9 || st.Mean > st.CIHi+3*st.Std+1e-9) {
			return fmt.Errorf("campaign: summary %s mean %v far outside its interval (%v, %v)",
				name, st.Mean, st.CILo, st.CIHi)
		}
	}
	for k, v := range m.Summary.Aggregate {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("campaign: aggregate %s is non-finite", k)
		}
	}
	return nil
}

// String renders the merged report headline: one line per summary metric
// plus the aggregate, the human-facing view `c4 campaign merge` prints.
func (m *Merged) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign %s — %d trials, manifest %s, seed %d\n",
		m.Name, m.Trials, shortHash(m.ManifestHash), m.Seed)
	rows := [][]string{
		statRow("precision", m.Summary.Precision),
		statRow("recall", m.Summary.Recall),
		statRow("rca_accuracy", m.Summary.RCAAccuracy),
		statRow("goodput_delta", m.Summary.GoodputDelta),
	}
	sb.WriteString(metrics.Table([]string{"metric", "n", "mean", "std", "95% CI"}, rows))
	agg := m.Summary.Aggregate
	fmt.Fprintf(&sb, "aggregate: precision %.3f, recall %.3f, rca %.3f, steering goodput %+.1f%%\n",
		agg["precision"], agg["recall"], agg["rca_accuracy"], agg["goodput_delta"]*100)
	return sb.String()
}

func statRow(name string, st Stat) []string {
	return []string{
		name, fmt.Sprint(st.N),
		fmt.Sprintf("%.4f", st.Mean), fmt.Sprintf("%.4f", st.Std),
		fmt.Sprintf("[%.4f, %.4f]", st.CILo, st.CIHi),
	}
}

func shortHash(h string) string {
	if len(h) > 19 {
		return h[:19]
	}
	return h
}
