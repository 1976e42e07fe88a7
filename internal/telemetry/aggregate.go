package telemetry

import (
	"math"

	"c4/internal/c4d"
	"c4/internal/sim"
)

// Incremental aggregates: every structure here updates in O(1) per record,
// which is what makes the streaming detector's per-record cost independent
// of fleet size where the batch master's per-pass cost is not.

// EWMA is an exponentially weighted moving average. The first observation
// seeds the average directly so warmup is unbiased.
type EWMA struct {
	// Alpha is the smoothing factor in (0,1]: the weight of each new
	// observation. Higher reacts faster, lower smooths harder.
	Alpha float64

	v float64
	n int
}

// Observe folds one observation in.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v = e.Alpha*x + (1-e.Alpha)*e.v
	}
	e.n++
}

// Value reports the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.v }

// Count reports how many observations were folded in.
func (e *EWMA) Count() int { return e.n }

// DecayAccum is an event-time-decayed accumulator: Add folds in a value
// at an instant, exponentially fading everything older with time constant
// Tau. It turns a stream of (time, duration) wait records into a rolling
// "recent waited-on time" without windowing — the streaming counterpart of
// the batch master's per-window wait totals.
type DecayAccum struct {
	Tau sim.Time

	v    float64
	last sim.Time
}

func (d *DecayAccum) decayTo(t sim.Time) {
	if t <= d.last || d.v == 0 {
		if t > d.last {
			d.last = t
		}
		return
	}
	dt := float64(t-d.last) / float64(d.Tau)
	d.v *= math.Exp(-dt)
	d.last = t
}

// Add folds in a value observed at instant t.
func (d *DecayAccum) Add(t sim.Time, x float64) {
	d.decayTo(t)
	d.v += x
}

// ValueAt reports the decayed accumulation as of instant t.
func (d *DecayAccum) ValueAt(t sim.Time) float64 {
	if t <= d.last {
		return d.v
	}
	return d.v * math.Exp(-float64(t-d.last)/float64(d.Tau))
}

// QuantileSketch is a fixed-bin streaming quantile estimator:
// observations land in log-spaced bins over [Lo, Hi], inserts are O(1),
// and quantile queries interpolate within the winning bin. Accuracy is
// bounded by the bin width (a constant relative error), which is exactly
// what the online detector needs: a stable healthy-median estimate to
// threshold slowdowns against, at O(1) per record instead of the batch
// analyzer's sort-the-window Median.
type QuantileSketch struct {
	lo, hi  float64
	logLo   float64
	logStep float64
	counts  []uint64
	total   uint64
}

// NewQuantileSketch creates a sketch over (lo, hi] with the given bin
// count. Observations at or below lo land in the first bin; above hi in
// the last.
func NewQuantileSketch(lo, hi float64, bins int) *QuantileSketch {
	if bins < 2 {
		bins = 2
	}
	if lo <= 0 {
		lo = 1e-9
	}
	if hi <= lo {
		hi = lo * 2
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	return &QuantileSketch{
		lo: lo, hi: hi,
		logLo:   logLo,
		logStep: (logHi - logLo) / float64(bins),
		counts:  make([]uint64, bins),
	}
}

func (q *QuantileSketch) bin(v float64) int {
	if v <= q.lo {
		return 0
	}
	b := int((math.Log(v) - q.logLo) / q.logStep)
	if b >= len(q.counts) {
		b = len(q.counts) - 1
	}
	return b
}

// Observe inserts one observation.
func (q *QuantileSketch) Observe(v float64) {
	q.counts[q.bin(v)]++
	q.total++
}

// Count reports the number of observations.
func (q *QuantileSketch) Count() uint64 { return q.total }

// Quantile estimates the p-quantile (p in [0,1]); 0 before any
// observation. The estimate is the geometric midpoint of the bin holding
// the p-th observation.
func (q *QuantileSketch) Quantile(p float64) float64 {
	if q.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(q.total-1))
	var cum uint64
	for i, c := range q.counts {
		cum += c
		if cum > rank {
			return math.Exp(q.logLo + (float64(i)+0.5)*q.logStep)
		}
	}
	return q.hi
}

// DelayMatrix is the streaming Fig 7 delay matrix: per-pair, per-row
// (source NIC) and per-column (destination NIC) bandwidth EWMAs, each
// line's distinct peers, and a quantile sketch of every transfer since the
// communicator opened for the healthy-median reference. It gathers the
// evidence c4d.JudgeCell reads: one Observe is a constant number of
// EWMA/sketch updates regardless of fleet size, where the batch master
// re-sums every cell of its window on every pass.
type DelayMatrix struct {
	alpha  float64
	pairs  map[[2]int]*EWMA
	rows   map[int]*matrixLine
	cols   map[int]*matrixLine
	sketch *QuantileSketch
}

// matrixLine is one row's or column's smoothed bandwidth and its distinct
// peers.
type matrixLine struct {
	EWMA
	peers int
}

// NewDelayMatrix creates a matrix with the given EWMA smoothing factor.
// The sketch spans 0.01..10000 of whatever bandwidth unit Observe is fed
// (Gbps throughout this repository).
func NewDelayMatrix(alpha float64) *DelayMatrix {
	return &DelayMatrix{
		alpha:  alpha,
		pairs:  map[[2]int]*EWMA{},
		rows:   map[int]*matrixLine{},
		cols:   map[int]*matrixLine{},
		sketch: NewQuantileSketch(0.01, 10000, 256),
	}
}

func (m *DelayMatrix) line(mp map[int]*matrixLine, k int) *matrixLine {
	l := mp[k]
	if l == nil {
		l = &matrixLine{EWMA: EWMA{Alpha: m.alpha}}
		mp[k] = l
	}
	return l
}

// Observe folds in one transfer's bandwidth. A pair's first transfer adds
// a peer to its row and its column.
func (m *DelayMatrix) Observe(src, dst int, bw float64) {
	key := [2]int{src, dst}
	row, col := m.line(m.rows, src), m.line(m.cols, dst)
	p := m.pairs[key]
	if p == nil {
		p = &EWMA{Alpha: m.alpha}
		m.pairs[key] = p
		row.peers++
		col.peers++
	}
	p.Observe(bw)
	row.Observe(bw)
	col.Observe(bw)
	m.sketch.Observe(bw)
}

// Evidence is what c4d.JudgeCell reads about cell (src, dst): the
// sketch's median and count, and the pair's, row's and column's EWMAs
// with their counts and distinct peers.
func (m *DelayMatrix) Evidence(src, dst int) c4d.CellEvidence {
	e := c4d.CellEvidence{Src: src, Dst: dst, Ref: m.sketch.Quantile(0.5), RefObs: int(m.sketch.Count())}
	if p := m.pairs[[2]int{src, dst}]; p != nil {
		e.BW, e.Obs = p.Value(), p.Count()
	}
	if r := m.rows[src]; r != nil {
		e.Row = c4d.Line{BW: r.Value(), Peers: r.peers, Obs: r.Count()}
	}
	if c := m.cols[dst]; c != nil {
		e.Col = c4d.Line{BW: c.Value(), Peers: c.peers, Obs: c.Count()}
	}
	return e
}
