// Bench-regression baselines: the JSON report `c4 bench -json` emits and
// `make bench-check` compares byte for byte against the committed one.
// Every number in a report is deterministic (the simulator is
// seed-stable), so any difference is a behavioral change — intended ones
// regenerate the committed baseline, unintended ones fail CI.

package metrics

import (
	"encoding/json"
	"fmt"
	"io"
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
