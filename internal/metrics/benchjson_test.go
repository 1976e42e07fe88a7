package metrics

import (
	"bytes"
	"encoding/json"
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

// A report is exactly one JSON document of known keys naming each
// scenario once.
func TestReadBenchReportRejectsGarbage(t *testing.T) {
	var good bytes.Buffer
	if err := sampleReport().WriteJSON(&good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"garbage", "not json", "invalid character"},
		{"trailing data", good.String() + `{"seed": 2}`, "data after the JSON document"},
		{"unknown key", strings.Replace(good.String(), `"seed"`, `"sead"`, 1), `unknown field "sead"`},
		{"repeated scenario", strings.Replace(good.String(), `"campaign/flap"`, `"fig9"`, 1), `scenario "fig9" appears twice`},
	} {
		if _, err := ReadBenchReport(strings.NewReader(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := ReadBenchReport(strings.NewReader(good.String() + " \n\t")); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
}

// FuzzReadBenchReport checks the baseline reader on random bytes: it never
// panics, it accepts at most one JSON document, and an accepted report
// re-reads from its own WriteJSON as an equal value. Its seed corpus holds
// the committed baseline, and copies of it truncated, with data after it
// and with an unknown key.
func FuzzReadBenchReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadBenchReport(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted %q, which is not exactly one JSON document", data)
		}
		var out bytes.Buffer
		if err := r.WriteJSON(&out); err != nil {
			t.Fatalf("write accepted report: %v", err)
		}
		again, err := ReadBenchReport(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written report %s does not re-read: %v", out.Bytes(), err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("written report %s re-reads as %+v, want %+v", out.Bytes(), again, r)
		}
	})
}
