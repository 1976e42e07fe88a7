package metrics

import (
	"math"
	"testing"

	"c4/internal/sim"
)

// TestMeanStd pins the campaign-summary moment helper against the same
// NaN firewall the Jain/Ratio guards enforce: non-finite inputs drop out
// instead of poisoning the summary.
func TestMeanStd(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name     string
		in       []float64
		mean, sd float64
	}{
		{"nil", nil, 0, 0},
		{"empty", []float64{}, 0, 0},
		{"single", []float64{7}, 7, 0},
		{"pair", []float64{2, 4}, 3, 1},
		{"constant", []float64{5, 5, 5, 5}, 5, 0},
		{"spread", []float64{1, 2, 3, 4, 5}, 3, math.Sqrt(2)},
		{"nan-skipped", []float64{math.NaN(), 2, 4}, 3, 1},
		{"inf-skipped", []float64{inf, 2, 4}, 3, 1},
		{"neg-inf-skipped", []float64{math.Inf(-1), 2, 4}, 3, 1},
		{"only-nonfinite", []float64{math.NaN(), inf}, 0, 0},
		{"nonfinite-leaves-single", []float64{math.NaN(), 9}, 9, 0},
	}
	for _, tc := range cases {
		mean, sd := MeanStd(tc.in)
		if math.IsNaN(mean) || math.IsInf(mean, 0) || math.IsNaN(sd) || math.IsInf(sd, 0) {
			t.Fatalf("%s: MeanStd = (%v, %v), non-finite leaked", tc.name, mean, sd)
		}
		if math.Abs(mean-tc.mean) > 1e-12 || math.Abs(sd-tc.sd) > 1e-12 {
			t.Fatalf("%s: MeanStd = (%v, %v), want (%v, %v)", tc.name, mean, sd, tc.mean, tc.sd)
		}
	}
}

// TestMeanStdMatchesStddev pins MeanStd's spread to the population
// standard deviation: a sample with mean 5 and squared deviations summing
// to 32 over 8 values has a standard deviation of exactly 2.
func TestMeanStdMatchesStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if mean, sd := MeanStd(xs); math.Abs(mean-Mean(xs)) > 1e-12 || math.Abs(sd-2) > 1e-12 {
		t.Fatalf("MeanStd = (%v, %v), want (%v, 2)", mean, sd, Mean(xs))
	}
}

// TestBootstrapCI checks the interval behaves like a confidence interval:
// deterministic under equal seeds, bracketing the sample mean, tighter at
// lower confidence and wider at higher, shrinking with sample size.
func TestBootstrapCI(t *testing.T) {
	xs := make([]float64, 200)
	r := sim.NewRand(11)
	for i := range xs {
		xs[i] = 10 + 2*r.NormFloat64()
	}

	lo, hi := BootstrapCI(xs, 1000, 0.95, sim.NewRand(42))
	lo2, hi2 := BootstrapCI(xs, 1000, 0.95, sim.NewRand(42))
	if lo != lo2 || hi != hi2 {
		t.Fatalf("equal seeds: (%v,%v) vs (%v,%v), want bit-identical", lo, hi, lo2, hi2)
	}

	mean, _ := MeanStd(xs)
	if !(lo < mean && mean < hi) {
		t.Fatalf("interval (%v, %v) does not bracket the sample mean %v", lo, hi, mean)
	}

	lo80, hi80 := BootstrapCI(xs, 1000, 0.80, sim.NewRand(42))
	if hi80-lo80 >= hi-lo {
		t.Fatalf("80%% interval (%v, %v) not tighter than 95%% (%v, %v)", lo80, hi80, lo, hi)
	}

	lo50, hi50 := BootstrapCI(xs[:50], 1000, 0.95, sim.NewRand(42))
	if hi-lo >= hi50-lo50 {
		t.Fatalf("200-sample interval (%v, %v) not tighter than 50-sample (%v, %v)", lo, hi, lo50, hi50)
	}
}

// TestBootstrapCIHardened is the NaN-firewall table: degenerate and
// non-finite inputs must collapse the interval, never emit NaN.
func TestBootstrapCIHardened(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		in     []float64
		lo, hi float64
		exact  bool
	}{
		{"nil", nil, 0, 0, true},
		{"empty", []float64{}, 0, 0, true},
		{"single", []float64{3.5}, 3.5, 3.5, true},
		{"only-nonfinite", []float64{math.NaN(), inf, math.Inf(-1)}, 0, 0, true},
		{"nonfinite-leaves-single", []float64{math.NaN(), 4}, 4, 4, true},
		{"constant", []float64{2, 2, 2, 2}, 2, 2, true},
		{"nan-skipped", []float64{math.NaN(), 1, 2, 3}, 1, 3, false},
	}
	for _, tc := range cases {
		lo, hi := BootstrapCI(tc.in, 200, 0.95, sim.NewRand(1))
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			t.Fatalf("%s: CI = (%v, %v), non-finite leaked", tc.name, lo, hi)
		}
		if lo > hi {
			t.Fatalf("%s: inverted interval (%v, %v)", tc.name, lo, hi)
		}
		if tc.exact && (lo != tc.lo || hi != tc.hi) {
			t.Fatalf("%s: CI = (%v, %v), want (%v, %v)", tc.name, lo, hi, tc.lo, tc.hi)
		}
		if !tc.exact && (lo < tc.lo || hi > tc.hi) {
			t.Fatalf("%s: CI = (%v, %v) outside data range (%v, %v)", tc.name, lo, hi, tc.lo, tc.hi)
		}
	}

	// Default arguments: resamples <= 0 and conf outside (0,1) fall back
	// rather than degenerate.
	lo, hi := BootstrapCI([]float64{1, 2, 3, 4}, 0, 0, sim.NewRand(1))
	if !(lo <= hi && lo >= 1 && hi <= 4) {
		t.Fatalf("default-arg CI = (%v, %v), want inside data range", lo, hi)
	}
}
