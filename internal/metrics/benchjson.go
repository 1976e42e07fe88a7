// Bench-regression baselines: the JSON report `c4 bench -json` emits and
// `c4 benchdiff` compares. Every number in a report is deterministic (the
// simulator is seed-stable), so any drift beyond tolerance is a behavioral
// change — intended ones regenerate the committed baseline, unintended
// ones fail CI.

package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// BenchScenario is one tracked scenario's numbers.
type BenchScenario struct {
	Name string `json:"name"`
	// Events is the simulation-event count, a cheap whole-run fingerprint.
	Events uint64 `json:"events"`
	// Metrics are the scenario's headline numbers (busbw, precision, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// BenchReport is a full baseline.
type BenchReport struct {
	Seed      int64           `json:"seed"`
	Scenarios []BenchScenario `json:"scenarios"`
}

// Sort orders scenarios by name so reports serialize canonically.
func (r *BenchReport) Sort() {
	sort.Slice(r.Scenarios, func(i, j int) bool {
		return r.Scenarios[i].Name < r.Scenarios[j].Name
	})
}

// WriteJSON emits the canonical (sorted, indented) form.
func (r BenchReport) WriteJSON(w io.Writer) error {
	r.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBenchReport parses a report.
func ReadBenchReport(rd io.Reader) (BenchReport, error) {
	var r BenchReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return BenchReport{}, fmt.Errorf("metrics: bad bench report: %w", err)
	}
	r.Sort()
	return r, nil
}

// DiffBenchReports compares a current report against a committed baseline
// and returns one human-readable line per violation: a tracked metric (or
// event count) drifting beyond tol (relative, e.g. 0.05 = 5%), a scenario
// missing from the current report, or an untracked newcomer (which should
// regenerate the baseline instead of slipping in silently).
func DiffBenchReports(base, cur BenchReport, tol float64) []string {
	var out []string
	if base.Seed != cur.Seed {
		out = append(out, fmt.Sprintf("seed mismatch: baseline %d vs current %d", base.Seed, cur.Seed))
	}
	curBy := map[string]BenchScenario{}
	for _, s := range cur.Scenarios {
		curBy[s.Name] = s
	}
	baseNames := map[string]bool{}
	for _, b := range base.Scenarios {
		baseNames[b.Name] = true
		c, ok := curBy[b.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from current report", b.Name))
			continue
		}
		if drift, bad := relDrift(float64(b.Events), float64(c.Events), tol); bad {
			out = append(out, fmt.Sprintf("%s: events %d -> %d (%+.1f%%, tol %.0f%%)",
				b.Name, b.Events, c.Events, drift*100, tol*100))
		}
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			cv, ok := c.Metrics[k]
			if !ok {
				out = append(out, fmt.Sprintf("%s: metric %q missing from current report", b.Name, k))
				continue
			}
			if drift, bad := relDrift(b.Metrics[k], cv, tol); bad {
				out = append(out, fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%, tol %.0f%%)",
					b.Name, k, b.Metrics[k], cv, drift*100, tol*100))
			}
		}
		newKeys := make([]string, 0, len(c.Metrics))
		for k := range c.Metrics {
			if _, ok := b.Metrics[k]; !ok {
				newKeys = append(newKeys, k)
			}
		}
		sort.Strings(newKeys)
		for _, k := range newKeys {
			out = append(out, fmt.Sprintf("%s: new metric %q not in baseline (regenerate it)", b.Name, k))
		}
	}
	for _, c := range cur.Scenarios {
		if !baseNames[c.Name] {
			out = append(out, fmt.Sprintf("%s: not in baseline (regenerate it)", c.Name))
		}
	}
	return out
}

// relDrift reports the relative change and whether it exceeds tolerance.
// A zero baseline is special: every tracked metric is deterministic, so a
// metric pinned at exactly zero (e.g. a false-alarm rate) moving off zero
// at all is a behavioral change — no relative tolerance can express that,
// and granting it the relative tolerance as an absolute budget would let
// real regressions slide. Anything beyond float noise trips the guard.
func relDrift(base, cur, tol float64) (float64, bool) {
	denom := math.Abs(base)
	if denom < 1e-9 {
		return cur - base, math.Abs(cur-base) > 1e-9
	}
	d := (cur - base) / denom
	return d, math.Abs(d) > tol
}
