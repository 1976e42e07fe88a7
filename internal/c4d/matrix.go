package c4d

import (
	"cmp"
	"slices"

	"c4/internal/accl"
	"c4/internal/metrics"
	"c4/internal/sim"
)

// The communication-slow rule implements the paper's Fig 7: transfer
// performance between worker pairs forms a matrix (rows = sources, columns
// = destinations); a single slow cell indicates a specific connection, a
// slow row a source-side (Tx) problem, and a slow column a destination-side
// (Rx) problem. JudgeCell is the rule, and both detectors apply it: the
// batch master, the offline analyzer and the κ ablation to the sums of a
// window (Localize), the online detector to the EWMAs and quantile sketch
// it keeps since the communicator opened.

// The evidence floors JudgeCell applies.
const (
	// MinMatrixObs is how many transfers a matrix needs before its
	// healthy reference is trusted.
	MinMatrixObs = 24
	// MinPairObs is how many transfers a cell needs before it is judged.
	MinPairObs = 3
	// MinLineCells is the breadth a row or column verdict needs, in
	// distinct peers; the line also needs MinPairObs transfers per peer of
	// that breadth. With fewer peers on a side (e.g. ring traffic, where
	// each node has exactly one outgoing connection), a "whole row slow"
	// claim is indistinguishable from a single bad connection, so the
	// finding stays at connection scope.
	MinLineCells = 3
)

// MatrixFinding is one localized slowness.
type MatrixFinding struct {
	Scope Scope // ScopeConnection, ScopeNodeTx or ScopeNodeRx
	Src   int   // source node (-1 for pure-Rx findings)
	Dst   int   // destination node (-1 for pure-Tx findings)
	// Slowdown is how many times worse than the healthy reference.
	Slowdown float64
}

// Line is the evidence on one matrix row (a source's transfers) or column
// (a destination's).
type Line struct {
	BW    float64 // average bandwidth
	Peers int     // distinct peers on the line
	Obs   int     // transfers
}

// CellEvidence is what JudgeCell reads about cell (Src, Dst). Bandwidths
// share one unit, any unit.
type CellEvidence struct {
	Src, Dst int
	Ref      float64 // the matrix's healthy reference bandwidth
	RefObs   int     // transfers behind Ref
	Row, Col Line    // the cell's row and column
	BW       float64 // the cell's bandwidth
	Obs      int     // the cell's transfers
}

// JudgeCell is the comm-slow rule both detectors apply to one cell. A
// value is slow below Ref/kappa, with slowdown Ref/value; a zero value is
// hard slow, at 2·kappa. The row is judged first (ScopeNodeTx), then the
// column (ScopeNodeRx), then the cell (ScopeConnection), each only once
// its evidence clears the floors, and the first slow one is the finding.
func JudgeCell(e CellEvidence, kappa float64) (MatrixFinding, bool) {
	if e.RefObs < MinMatrixObs || !(e.Ref > 0) {
		return MatrixFinding{}, false
	}
	slowdown := func(v float64) (float64, bool) {
		if v <= 0 {
			return 2 * kappa, true
		}
		return e.Ref / v, v < e.Ref/kappa
	}
	broad := func(l Line) bool { return l.Peers >= MinLineCells && l.Obs >= MinPairObs*MinLineCells }
	if s, slow := slowdown(e.Row.BW); slow && broad(e.Row) {
		return MatrixFinding{Scope: ScopeNodeTx, Src: e.Src, Dst: -1, Slowdown: s}, true
	}
	if s, slow := slowdown(e.Col.BW); slow && broad(e.Col) {
		return MatrixFinding{Scope: ScopeNodeRx, Src: -1, Dst: e.Dst, Slowdown: s}, true
	}
	if s, slow := slowdown(e.BW); slow && e.Obs >= MinPairObs {
		return MatrixFinding{Scope: ScopeConnection, Src: e.Src, Dst: e.Dst, Slowdown: s}, true
	}
	return MatrixFinding{}, false
}

// Cell is one cell of a window's delay matrix: the connection's mean
// bandwidth over the window and its transfers in it.
type Cell struct {
	Src, Dst int
	BW       float64
	Obs      int
}

// Localize judges every cell of one window's delay matrix with JudgeCell,
// in the order given; callers pass (src, dst) order, which connection
// findings keep. The healthy reference is the median cell bandwidth and a
// line's value the mean of its cells'; each blamed row and column is
// reported once.
func Localize(cells []Cell, kappa float64) []MatrixFinding {
	if len(cells) == 0 {
		return nil
	}
	bws := make([]float64, len(cells))
	// At most one line per cell: exactly that on a ring, the traffic of
	// every simulated communicator.
	rows, cols := make(map[int]lineSum, len(cells)), make(map[int]lineSum, len(cells))
	obs := 0
	for i, c := range cells {
		bws[i] = c.BW
		obs += c.Obs
		rows[c.Src] = rows[c.Src].add(c)
		cols[c.Dst] = cols[c.Dst].add(c)
	}
	ref := metrics.Median(bws)
	var out []MatrixFinding
	for _, c := range cells {
		f, ok := JudgeCell(CellEvidence{
			Src: c.Src, Dst: c.Dst, Ref: ref, RefObs: obs,
			Row: rows[c.Src].mean(), Col: cols[c.Dst].mean(), BW: c.BW, Obs: c.Obs,
		}, kappa)
		// Every cell of a blamed line yields the same finding.
		if ok && (f.Scope == ScopeConnection || !slices.Contains(out, f)) {
			out = append(out, f)
		}
	}
	return out
}

// lineSum is one line's cells in Localize.
type lineSum struct {
	bw         float64
	peers, obs int
}

func (s lineSum) add(c Cell) lineSum { return lineSum{s.bw + c.BW, s.peers + 1, s.obs + c.Obs} }

func (s lineSum) mean() Line { return Line{BW: s.bw / float64(s.peers), Peers: s.peers, Obs: s.obs} }

// pairAgg is one connection's transfers in a window.
type pairAgg struct {
	bytes float64
	dur   sim.Time
	n     int
}

// pairSums are one window's transfer sums by (src, dst): the delay-matrix
// evidence of the batch master and the offline analyzer.
type pairSums map[[2]int]pairAgg

// add folds one transfer into its pair's sums.
func (p pairSums) add(m accl.MsgEvent) {
	key := [2]int{m.SrcNode, m.DstNode}
	agg := p[key]
	agg.bytes += m.Bytes
	agg.dur += m.Duration()
	agg.n++
	p[key] = agg
}

// localize turns the sums into cells, each pair's mean bandwidth in
// bits/s, in (src, dst) order and localizes them. A pair with no transfer
// time has no bandwidth and is left out.
func (p pairSums) localize(kappa float64) []MatrixFinding {
	cells := make([]Cell, 0, len(p))
	for key, agg := range p {
		if agg.dur > 0 {
			cells = append(cells, Cell{Src: key[0], Dst: key[1], BW: agg.bytes * 8 / agg.dur.Seconds(), Obs: agg.n})
		}
	}
	slices.SortFunc(cells, func(a, b Cell) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return Localize(cells, kappa)
}
