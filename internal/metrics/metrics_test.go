package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "bw"}
	for i := 0; i < 5; i++ {
		s.Add(float64(i), float64(i*10))
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Last() != 40 {
		t.Fatalf("last = %v", s.Last())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v", s.Mean())
	}
	w := s.Window(1, 3)
	if len(w) != 2 || w[0].V != 10 || w[1].V != 20 {
		t.Fatalf("window = %v", w)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{}
	if s.Last() != 0 || s.Mean() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestMedianAndMAD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if got := Median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if Median(nil) != 0 {
		t.Fatal("empty median should be 0")
	}
	// Median must not mutate its input.
	orig := []float64{3, 1, 2}
	Median(orig)
	if orig[0] != 3 {
		t.Fatal("Median mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {-5, 10}, {150, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal shares: Jain = %v, want 1", got)
	}
	// One tenant hogs everything: index collapses toward 1/n.
	if got := Jain([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("starved shares: Jain = %v, want 0.25", got)
	}
	if Jain(nil) != 0 || Jain([]float64{0, 0}) != 0 {
		t.Fatal("empty/all-zero input should yield 0")
	}
	got := Jain([]float64{4, 2})
	want := 36.0 / (2 * 20)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Jain(4,2) = %v, want %v", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"x", "1"}, {"yyyy", "2"}})
	if !strings.Contains(out, "long-header") {
		t.Fatal("missing header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	// All lines padded to the same visual width structure.
	if !strings.HasPrefix(lines[1], "-") {
		t.Fatal("missing separator")
	}
}

func TestBars(t *testing.T) {
	out := Bars([]string{"a", "b"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Fatalf("max bar should be full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Fatalf("half bar wrong: %q", lines[0])
	}
	if Bars([]string{"z"}, []float64{0}, 5) == "" {
		t.Fatal("zero values should still render")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return lo <= hi+1e-9 && lo >= sorted[0]-1e-9 && hi <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestJainHardened is the table-driven guard for the bench-JSON firewall:
// no input shape — empty, all-zero, single, skewed, or polluted with
// non-finite values — may ever produce NaN/Inf.
func TestJainHardened(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"nil", nil, 0},
		{"empty", []float64{}, 0},
		{"all-zero", []float64{0, 0, 0}, 0},
		{"single", []float64{7}, 1},
		{"equal", []float64{3, 3, 3}, 1},
		{"starved", []float64{10, 0, 0, 0}, 0.25},
		{"nan-skipped", []float64{math.NaN(), 5, 5}, 1},
		{"inf-skipped", []float64{inf, 5, 5}, 1},
		{"neg-inf-skipped", []float64{math.Inf(-1), 5, 5}, 1},
		{"only-nonfinite", []float64{math.NaN(), inf}, 0},
	}
	for _, tc := range cases {
		got := Jain(tc.in)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: Jain = %v, non-finite leaked", tc.name, got)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("%s: Jain = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRatio pins the shared goodput-extractor guard.
func TestRatio(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name     string
		num, den float64
		want     float64
	}{
		{"normal", 10, 4, 2.5},
		{"zero-den", 10, 0, 0},
		{"negative-den", 10, -1, 0},
		{"zero-num", 0, 4, 0},
		{"nan-num", math.NaN(), 4, 0},
		{"inf-num", inf, 4, 0},
		{"nan-den", 10, math.NaN(), 0},
		{"inf-den", 10, inf, 0},
	}
	for _, tc := range cases {
		got := Ratio(tc.num, tc.den)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: Ratio = %v, non-finite leaked", tc.name, got)
		}
		if got != tc.want {
			t.Fatalf("%s: Ratio(%v, %v) = %v, want %v", tc.name, tc.num, tc.den, got, tc.want)
		}
	}
}
