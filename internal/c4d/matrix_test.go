package c4d

import (
	"slices"
	"testing"
	"testing/quick"

	"c4/internal/sim"
)

// buildMatrix creates a healthy full-mesh matrix over n nodes at `base`
// Gbps, in (src, dst) order, then applies overrides. Every cell carries
// MinPairObs transfers, which clears the rule's floors from four nodes up.
func buildMatrix(n int, base float64, slow map[[2]int]float64) []Cell {
	var cells []Cell
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			bw, ok := slow[[2]int{s, d}]
			if !ok {
				bw = base
			}
			cells = append(cells, Cell{Src: s, Dst: d, BW: bw, Obs: MinPairObs})
		}
	}
	return cells
}

func TestMatrixSingleCell(t *testing.T) {
	// Fig 7 left: one large entry -> a specific connection bottleneck.
	bw := buildMatrix(8, 360, map[[2]int]float64{{3, 4}: 90})
	got := Localize(bw, 2)
	if len(got) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", got)
	}
	f := got[0]
	if f.Scope != ScopeConnection || f.Src != 3 || f.Dst != 4 {
		t.Fatalf("finding = %+v, want connection 3->4", f)
	}
	if f.Slowdown < 3.5 || f.Slowdown > 4.5 {
		t.Fatalf("slowdown = %v, want ≈4", f.Slowdown)
	}
}

func TestMatrixRowSlow(t *testing.T) {
	// Fig 7 middle: a whole row -> the source's Tx side.
	slow := map[[2]int]float64{}
	for d := 0; d < 8; d++ {
		if d != 3 {
			slow[[2]int{3, d}] = 100
		}
	}
	bw := buildMatrix(8, 360, slow)
	got := Localize(bw, 2)
	if len(got) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", got)
	}
	if got[0].Scope != ScopeNodeTx || got[0].Src != 3 {
		t.Fatalf("finding = %+v, want node-tx 3", got[0])
	}
}

func TestMatrixColumnSlow(t *testing.T) {
	// Fig 7 right: a whole column -> the destination's Rx side.
	slow := map[[2]int]float64{}
	for s := 0; s < 8; s++ {
		if s != 5 {
			slow[[2]int{s, 5}] = 100
		}
	}
	bw := buildMatrix(8, 360, slow)
	got := Localize(bw, 2)
	if len(got) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", got)
	}
	if got[0].Scope != ScopeNodeRx || got[0].Dst != 5 {
		t.Fatalf("finding = %+v, want node-rx 5", got[0])
	}
}

func TestMatrixRowAndCell(t *testing.T) {
	slow := map[[2]int]float64{}
	for d := 0; d < 8; d++ {
		if d != 2 {
			slow[[2]int{2, d}] = 100
		}
	}
	slow[[2]int{6, 7}] = 50
	bw := buildMatrix(8, 360, slow)
	got := Localize(bw, 2)
	if len(got) != 2 {
		t.Fatalf("findings = %+v, want 2", got)
	}
	var haveRow, haveCell bool
	for _, f := range got {
		switch f.Scope {
		case ScopeNodeTx:
			haveRow = f.Src == 2
		case ScopeConnection:
			haveCell = f.Src == 6 && f.Dst == 7
		}
	}
	if !haveRow || !haveCell {
		t.Fatalf("findings = %+v, want row(2) and cell(6->7)", got)
	}
}

func TestMatrixHealthyIsQuiet(t *testing.T) {
	bw := buildMatrix(8, 360, nil)
	if got := Localize(bw, 2); len(got) != 0 {
		t.Fatalf("healthy matrix produced findings: %+v", got)
	}
	// Mild jitter below kappa stays quiet too.
	bw = buildMatrix(8, 360, map[[2]int]float64{{1, 2}: 250})
	if got := Localize(bw, 2); len(got) != 0 {
		t.Fatalf("sub-threshold jitter produced findings: %+v", got)
	}
}

func TestMatrixZeroBandwidthCell(t *testing.T) {
	bw := buildMatrix(4, 360, map[[2]int]float64{{0, 1}: 0})
	got := Localize(bw, 2)
	if len(got) != 1 || got[0].Scope != ScopeConnection {
		t.Fatalf("findings = %+v, want one connection", got)
	}
}

func TestMatrixEmptyAndDegenerate(t *testing.T) {
	if got := Localize(nil, 2); got != nil {
		t.Fatalf("empty matrix: %+v", got)
	}
	if got := Localize([]Cell{{Src: 0, Dst: 1, BW: 0, Obs: MinMatrixObs}}, 2); got != nil {
		t.Fatalf("all-zero matrix should be unanalyzable, got %+v", got)
	}
}

// Property: relabeling nodes permutes findings but preserves their
// structure (the analyzer has no positional bias).
func TestMatrixPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := sim.NewRand(seed)
		n := 6
		victim := r.Intn(n)
		slow := map[[2]int]float64{}
		for d := 0; d < n; d++ {
			if d != victim {
				slow[[2]int{victim, d}] = 80
			}
		}
		bw := buildMatrix(n, 360, slow)
		got := Localize(bw, 2)
		if len(got) != 1 || got[0].Scope != ScopeNodeTx || got[0].Src != victim {
			return false
		}
		// Permute labels and re-check.
		perm := r.Perm(n)
		pbw := slices.Clone(bw)
		for i := range pbw {
			pbw[i].Src, pbw[i].Dst = perm[pbw[i].Src], perm[pbw[i].Dst]
		}
		pg := Localize(pbw, 2)
		return len(pg) == 1 && pg[0].Scope == ScopeNodeTx && pg[0].Src == perm[victim]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling all bandwidths uniformly produces no findings (the
// detector is relative, not absolute).
func TestMatrixScaleInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := sim.NewRand(seed)
		scale := 0.1 + 10*r.Float64()
		bw := buildMatrix(6, 360*scale, nil)
		return len(Localize(bw, 2)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// JudgeCell judges nothing below its floors: a matrix with fewer than
// MinMatrixObs transfers, a cell with fewer than MinPairObs, or a line
// with fewer than MinLineCells peers or MinPairObs transfers per such
// peer. Above them the row wins over the column and the column over the
// cell; a value is slow strictly below Ref/kappa, and a zero value at
// 2·kappa.
func TestJudgeCellFloors(t *testing.T) {
	healthy := Line{BW: 100, Peers: MinLineCells, Obs: MinPairObs * MinLineCells}
	slow := Line{BW: 10, Peers: MinLineCells, Obs: MinPairObs * MinLineCells}
	for _, tc := range []struct {
		name     string
		edit     func(*CellEvidence)
		scope    Scope // -1: no finding
		slowdown float64
	}{
		{"slow cell", func(*CellEvidence) {}, ScopeConnection, 5},
		{"matrix below its floor", func(e *CellEvidence) { e.RefObs-- }, -1, 0},
		{"no reference", func(e *CellEvidence) { e.Ref = 0 }, -1, 0},
		{"cell below its floor", func(e *CellEvidence) { e.Obs-- }, -1, 0},
		{"healthy cell", func(e *CellEvidence) { e.BW = 100 }, -1, 0},
		{"cell at the threshold", func(e *CellEvidence) { e.BW = 50 }, -1, 0},
		{"zero cell", func(e *CellEvidence) { e.BW = 0 }, ScopeConnection, 4},
		{"slow row", func(e *CellEvidence) { e.Row = slow }, ScopeNodeTx, 10},
		{"slow row and column", func(e *CellEvidence) { e.Row, e.Col = slow, slow }, ScopeNodeTx, 10},
		{"slow column", func(e *CellEvidence) { e.Col = slow }, ScopeNodeRx, 10},
		{"row of too few peers", func(e *CellEvidence) { e.Row = slow; e.Row.Peers-- }, ScopeConnection, 5},
		{"row of too few transfers", func(e *CellEvidence) { e.Row = slow; e.Row.Obs-- }, ScopeConnection, 5},
		{"column of too few peers", func(e *CellEvidence) { e.Col = slow; e.Col.Peers-- }, ScopeConnection, 5},
		{"slow row, healthy cell below its floor", func(e *CellEvidence) { e.Row, e.BW, e.Obs = slow, 100, 0 }, ScopeNodeTx, 10},
	} {
		e := CellEvidence{Src: 1, Dst: 2, Ref: 100, RefObs: MinMatrixObs, Row: healthy, Col: healthy, BW: 20, Obs: MinPairObs}
		tc.edit(&e)
		f, ok := JudgeCell(e, 2)
		if tc.scope < 0 {
			if ok {
				t.Errorf("%s: judged %+v, want no finding", tc.name, f)
			}
			continue
		}
		want := MatrixFinding{Scope: tc.scope, Src: 1, Dst: 2, Slowdown: tc.slowdown}
		switch tc.scope {
		case ScopeNodeTx:
			want.Dst = -1
		case ScopeNodeRx:
			want.Src = -1
		}
		if !ok || f != want {
			t.Errorf("%s: judged %+v (%v), want %+v", tc.name, f, ok, want)
		}
	}
}
