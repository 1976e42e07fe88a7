package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleReport() BenchReport {
	return BenchReport{
		Seed: 1,
		Scenarios: []BenchScenario{
			{Name: "fig9", Events: 1000, Metrics: map[string]float64{"busbw": 360.0}},
			{Name: "campaign/flap", Events: 5000, Metrics: map[string]float64{"recall": 1.0, "delta": 0.5}},
		},
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep.Sort()
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip changed the report:\n%+v\nwant\n%+v", got, rep)
	}
	// Canonical form: scenarios sorted by name.
	if got.Scenarios[0].Name != "campaign/flap" {
		t.Fatalf("report not sorted: %v", got.Scenarios)
	}
}

func TestBenchReportCanonicalBytes(t *testing.T) {
	var a, b bytes.Buffer
	rep := sampleReport()
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	// Reversed input order must serialize identically.
	rev := sampleReport()
	rev.Scenarios[0], rev.Scenarios[1] = rev.Scenarios[1], rev.Scenarios[0]
	if err := rev.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("serialization not canonical:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestReadBenchReportRejectsGarbage(t *testing.T) {
	if _, err := ReadBenchReport(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}
