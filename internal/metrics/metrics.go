// Package metrics provides the measurement plumbing shared by the C4
// reproduction: time series, summary statistics (mean, median,
// percentiles, Jain's fairness index, guarded ratios), bootstrap
// intervals, the bench report format, and ASCII rendering for the
// experiment harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is one (time, value) observation. Time is in seconds of virtual
// time so series stay unit-agnostic.
type Sample struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name    string
	Samples []Sample
}

// Add appends an observation.
func (s *Series) Add(t, v float64) { s.Samples = append(s.Samples, Sample{T: t, V: v}) }

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns just the observation values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, p := range s.Samples {
		out[i] = p.V
	}
	return out
}

// Last returns the most recent value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].V
}

// Mean reports the arithmetic mean of the values (0 when empty).
func (s *Series) Mean() float64 { return Mean(s.Values()) }

// Window returns the samples with from <= T < to.
func (s *Series) Window(from, to float64) []Sample {
	var out []Sample
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// Mean reports the arithmetic mean (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min reports the smallest element (0 when empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max reports the largest element (0 when empty).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Jain reports Jain's fairness index (Σx)²/(n·Σx²) over non-negative
// allocations: 1.0 when every tenant gets an equal share, approaching 1/n
// when one tenant starves the rest. 0 when the input is empty or all-zero.
// Non-finite inputs (NaN, ±Inf — e.g. a goodput computed over a zero
// span upstream) are skipped rather than poisoning the index: its output
// lands in `c4 bench -json` baselines, where NaN is both meaningless and
// unserializable.
func Jain(xs []float64) float64 {
	var sum, sq float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		n++
		sum += x
		sq += x * x
	}
	if n == 0 || sq <= 0 {
		return 0
	}
	return sum * sum / (float64(n) * sq)
}

// Ratio is the guarded division shared by the goodput and gain
// extractors: num/den, but 0 whenever the denominator is zero/negative or
// either side is non-finite — the NaN/Inf firewall in front of every
// tracked metric.
func Ratio(num, den float64) float64 {
	if den <= 0 || math.IsNaN(num) || math.IsInf(num, 0) ||
		math.IsNaN(den) || math.IsInf(den, 0) {
		return 0
	}
	return num / den
}

// MeanStd reports the mean and population standard deviation over the
// finite elements of xs, with the same NaN/Inf firewall as Jain and
// Ratio: non-finite inputs (a ratio computed over a zero span upstream)
// are skipped rather than poisoning both moments, because the output
// lands in campaign summaries and `c4 bench -json` baselines where NaN is
// meaningless and unserializable. Empty (or all-non-finite) input yields
// (0, 0); a single sample yields (x, 0).
func MeanStd(xs []float64) (mean, std float64) {
	var sum float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		n++
		sum += x
	}
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(n))
}

// Median reports the middle value (0 when empty). The input is not mutated.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Percentile reports the p-th percentile (p in [0,100]) using linear
// interpolation. The input is not mutated.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	pos := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Table renders rows of cells with a header, padded for terminals; it is
// how the harness prints each reproduced paper table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Bars renders a labeled horizontal bar chart scaled to maxWidth columns;
// used for figure-shaped results.
func Bars(labels []string, values []float64, maxWidth int) string {
	maxV := Max(values)
	if maxV <= 0 {
		maxV = 1
	}
	lw := 0
	for _, l := range labels {
		if len(l) > lw {
			lw = len(l)
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := int(v / maxV * float64(maxWidth))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s | %s %.2f\n", lw, labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}
