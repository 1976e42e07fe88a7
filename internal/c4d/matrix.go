package c4d

import (
	"sort"

	"c4/internal/metrics"
)

// The communication-slow localizer implements the paper's Fig 7: transfer
// performance between worker pairs forms a matrix (rows = sources, columns
// = destinations); a single slow cell indicates a specific connection, a
// slow row a source-side (Tx) problem, and a slow column a destination-side
// (Rx) problem.

// MinLineCells is the breadth a row or column verdict needs. With fewer
// than three observed cells on a side (e.g. ring traffic, where each node
// has exactly one outgoing connection), a "whole row slow" claim is
// indistinguishable from a single bad connection, so the finding stays at
// connection scope. The online detector's streaming matrix applies the
// same floor to the distinct peers it has seen on a line.
const MinLineCells = 3

// MatrixFinding is one localized slowness.
type MatrixFinding struct {
	Scope Scope // ScopeConnection, ScopeNodeTx or ScopeNodeRx
	Src   int   // source node (-1 for pure-Rx findings)
	Dst   int   // destination node (-1 for pure-Tx findings)
	// Slowdown is how many times worse than the healthy median.
	Slowdown float64
}

// AnalyzeDelayMatrix localizes slow components from per-pair throughput.
// bw maps (src,dst) to mean observed bandwidth over the analysis window
// (any consistent unit). kappa is the slowdown multiple considered
// anomalous (the paper's deployment flags multi-fold degradations; 2.0 is
// used throughout this repo). rowColFrac is the fraction of a row/column
// that must be anomalous to blame the whole NIC side rather than single
// connections (0.6 works well and tolerates missing cells).
func AnalyzeDelayMatrix(bw map[[2]int]float64, kappa, rowColFrac float64) []MatrixFinding {
	if len(bw) == 0 {
		return nil
	}
	// Healthy baseline: median bandwidth across all pairs. MAD-robust so a
	// handful of broken cells cannot drag the baseline down.
	all := make([]float64, 0, len(bw))
	for _, v := range bw {
		//c4vet:allow mapiterfloat consumed only by Median, which copies and sorts; any permutation yields the same value
		all = append(all, v)
	}
	med := metrics.Median(all)
	if med <= 0 {
		return nil
	}

	type cell struct {
		src, dst int
		slow     float64
	}
	// Iterate cells in (src, dst) order: map iteration order is randomized,
	// and the float accumulation below must not depend on it — equal inputs
	// must yield bit-identical findings (the replay tests assert this).
	keys := make([][2]int, 0, len(bw))
	for key := range bw {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	var anomalous []cell
	rowCells := map[int]int{} // src -> total observed cells
	colCells := map[int]int{}
	rowBad := map[int][]cell{}
	colBad := map[int][]cell{}
	for _, key := range keys {
		v := bw[key]
		src, dst := key[0], key[1]
		rowCells[src]++
		colCells[dst]++
		slow := kappa * 2 // treat zero-bandwidth as hard-slow
		if v > 0 {
			slow = med / v
		}
		if slow >= kappa {
			c := cell{src, dst, slow}
			anomalous = append(anomalous, c)
			rowBad[src] = append(rowBad[src], c)
			colBad[dst] = append(colBad[dst], c)
		}
	}
	if len(anomalous) == 0 {
		return nil
	}

	var out []MatrixFinding
	claimed := map[[2]int]bool{}

	// Rows and columns first (most specific aggregate evidence), larger
	// coverage first, deterministic order.
	type side struct {
		node  int
		cells []cell
		frac  float64
		isRow bool
	}
	var sides []side
	for src, cells := range rowBad {
		frac := float64(len(cells)) / float64(rowCells[src])
		sides = append(sides, side{src, cells, frac, true})
	}
	for dst, cells := range colBad {
		frac := float64(len(cells)) / float64(colCells[dst])
		sides = append(sides, side{dst, cells, frac, false})
	}
	sort.Slice(sides, func(i, j int) bool {
		if sides[i].frac != sides[j].frac {
			return sides[i].frac > sides[j].frac
		}
		if sides[i].isRow != sides[j].isRow {
			return sides[i].isRow
		}
		return sides[i].node < sides[j].node
	})
	for _, s := range sides {
		if s.frac < rowColFrac || len(s.cells) < MinLineCells {
			continue
		}
		// Skip if most of this side's cells were already claimed by an
		// earlier (stronger) finding.
		fresh := 0
		var slowSum float64
		for _, c := range s.cells {
			if !claimed[[2]int{c.src, c.dst}] {
				fresh++
				slowSum += c.slow
			}
		}
		if fresh == 0 || float64(fresh) < rowColFrac*float64(len(s.cells)) {
			continue
		}
		for _, c := range s.cells {
			claimed[[2]int{c.src, c.dst}] = true
		}
		f := MatrixFinding{Slowdown: slowSum / float64(fresh)}
		if s.isRow {
			f.Scope, f.Src, f.Dst = ScopeNodeTx, s.node, -1
		} else {
			f.Scope, f.Src, f.Dst = ScopeNodeRx, -1, s.node
		}
		out = append(out, f)
	}

	// Remaining anomalous cells are individual connection findings.
	sort.Slice(anomalous, func(i, j int) bool {
		if anomalous[i].src != anomalous[j].src {
			return anomalous[i].src < anomalous[j].src
		}
		return anomalous[i].dst < anomalous[j].dst
	})
	for _, c := range anomalous {
		if claimed[[2]int{c.src, c.dst}] {
			continue
		}
		out = append(out, MatrixFinding{
			Scope: ScopeConnection, Src: c.src, Dst: c.dst, Slowdown: c.slow,
		})
	}
	return out
}
