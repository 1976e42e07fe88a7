package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c4/internal/trace"
)

// spec is BENCHMARK.json, the benchmark's contract with its runner.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specLoad  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesCode keeps BENCHMARK.json and the tables here equal.
func TestSpecMatchesCode(t *testing.T) {
	got := readSpec(t)
	want := got
	want.Command = []string{"bash", "bench/perf/run.sh"}
	want.Paths = []string{"bench/perf"}
	want.RunSeconds = defaultSeconds
	want.Workloads = nil
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, specLoad{Name: w.name, Why: w.why})
	}
	want.EndToEnd = endToEnd
	want.PerLayer = perLayer()
	if !reflect.DeepEqual(got, want) {
		b, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the code; want:\n%s", b)
	}
}

// tiny shrinks every workload to a few seconds: two scenarios, four
// trials, two sessions, one replay of a short stream, one set-up.
func tiny(t *testing.T, workload string, traced bool) config {
	return config{
		workload: workload, seed: 1, trace: traced,
		traceDir: t.TempDir(), baseline: filepath.Join("..", "baseline.json"),
		size: sizes{
			paper: []string{"fig9", "nccltest"}, paperWarm: "nccltest",
			scale: []string{"netsim/scale-aggregate"}, scaleWarm: "nccltest",
			trials: 4, shards: 2, clients: 2, replayHorizonS: 300, setups: 1,
		},
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny size
// and checks each emits exactly the metrics BENCHMARK.json names, with
// their units, and that nothing failed.
func TestWorkloadsTiny(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				c := tiny(t, w.name, traced)
				rep, err := measure(context.Background(), c)
				if err != nil {
					t.Fatal(err)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(rep.result.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(rep.result.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := rep.result.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s = %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if !rep.result.Correct || rep.result.Failed != 0 {
					t.Errorf("%d of %d units failed: %v", rep.result.Failed, rep.result.Attempted, rep.failures)
				}
				if !traced {
					for _, d := range s.EndToEnd {
						if rep.result.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, rep.result.Metrics[d.Name].Value)
						}
					}
					return
				}
				f, err := os.Open(filepath.Join(c.traceDir, w.name+"-s1.trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				spans, err := trace.ParseChrome(f)
				f.Close()
				if err != nil || len(spans) == 0 {
					t.Errorf("Chrome trace has %d spans, err %v", len(spans), err)
				}
			})
		}
	}
}

// TestOutputSHAStable runs one workload twice at one seed: the outputs
// hash alike.
func TestOutputSHAStable(t *testing.T) {
	var shas []any
	for range 2 {
		rep, err := measure(context.Background(), tiny(t, "replay", false))
		if err != nil {
			t.Fatal(err)
		}
		shas = append(shas, rep.info["output_sha"])
	}
	if shas[0] != shas[1] {
		t.Errorf("output_sha differs between runs at one seed: %v", shas)
	}
}

// TestBaselineGateBites nudges one tracked metric in a copy of the
// committed baseline: the paper workload must then count failures.
func TestBaselineGateBites(t *testing.T) {
	c := tiny(t, "paper", false)
	data, err := os.ReadFile(c.baseline)
	if err != nil {
		t.Fatal(err)
	}
	var base map[string]any
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	nudged := false
	for _, s := range base["scenarios"].([]any) {
		sc := s.(map[string]any)
		if sc["name"] == "fig9" {
			m := sc["metrics"].(map[string]any)
			m["c4p_gbps"] = m["c4p_gbps"].(float64) * (1 + 1e-9)
			nudged = true
		}
	}
	if !nudged {
		t.Fatal("fig9 is not in the baseline")
	}
	data, err = json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	c.baseline = filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(c.baseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := measure(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.result.Failed == 0 || rep.result.Correct {
		t.Errorf("nudged baseline: %d failed of %d, correct=%v; want failures", rep.result.Failed, rep.result.Attempted, rep.result.Correct)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "paper", "--seconds", "-1"},
		{"compare", "only-one-dir"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "unit_ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    []float64
		wins int
		want string
	}{
		{"same", steady, 4, "same"},
		{"better", shift(steady, 0.9), 10, "better"},
		{"better median but few wins", shift(steady, 0.97), 6, "same"},
		{"worse", shift(steady, 1.2), 0, "worse"},
		{"unresolved", []float64{60, 80, 100, 120, 140, 160, 90, 110, 100, 100}, 5, "unresolved"},
	} {
		if got := verdict(steady, tc.b, lower, tc.wins, 10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.1}
	if got := verdict(steady, shift(steady, 1.2), higher, 10, 10); got != "better" {
		t.Errorf("higher-is-better gain: verdict %s, want better", got)
	}
}

// TestCompare feeds compare two directories of saved outputs.
func TestCompare(t *testing.T) {
	write := func(dir string, seed int, unitMs float64) {
		info, _ := json.Marshal(map[string]any{"info": runInfo{Workload: "replay", Seed: int64(seed)}})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
			"unit_ms": {Value: unitMs, Unit: "ms"}, "setup_s": {Value: 1, Unit: "s"},
		}})
		out := "perf replay\n" + string(info) + "\n" + string(res) + "\n"
		if err := os.WriteFile(filepath.Join(dir, "r"+string(rune('0'+seed))+".out"), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for s := 1; s <= 5; s++ {
		write(a, s, 100+float64(s))
		write(b, s, 100+float64(s))
		write(c, s, 150+float64(s))
	}
	var out bytes.Buffer
	if code := run([]string{"compare", a, b}, &out, &out); code != 0 {
		t.Errorf("compare of equal sets exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("compare of equal sets:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"compare", a, c}, &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare against a slower set exited %d:\n%s", code, out.String())
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"c4/internal/netsim.(*Network).settle":         "netsim",
		"c4/internal/analysis.Load":                    "other",
		"c4.(*Session).Run":                            "c4",
		"main.main":                                    "bench",
		"runtime.mallocgc":                             "go.runtime",
		"aeshashbody":                                  "go.runtime",
		"internal/runtime/maps.(*Map).getWithKey":      "go.runtime",
		"container/heap.Fix":                           "go.heap",
		"encoding/json.(*decodeState).object":          "go.json",
		"net/http.(*conn).serve":                       "go.net",
		"slices.SortFunc[go.shape.[]int,go.shape.int]": "go.sort",
		"fmt.Sprintf":                                  "other",
		"c4/internal/sim.(*heapQ[go.shape.int]).Less":  "sim",
	} {
		if got := layerOf(pkgOf(fn)); got != want {
			t.Errorf("layerOf(pkgOf(%q)) = %s, want %s", fn, got, want)
		}
	}
}

func TestParseCPUModel(t *testing.T) {
	in := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n"
	if got := parseCPUModel(strings.NewReader(in)); got != "Intel(R) Xeon(R) Processor" {
		t.Errorf("parseCPUModel = %q", got)
	}
}
