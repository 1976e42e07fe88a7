package telemetry

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/sim"
)

// meshCell is one connection of a synthetic delay matrix: its bandwidth
// and how many transfers it carries.
type meshCell struct {
	src, dst  int
	gbps      float64
	transfers int
}

// fullMesh is every connection among n nodes at 360 Gbps with MinPairObs
// transfers, in (src, dst) order, with the overridden bandwidths.
func fullMesh(n int, slow map[[2]int]float64) []meshCell {
	var cells []meshCell
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			gbps, ok := slow[[2]int{s, d}]
			if !ok {
				gbps = 360
			}
			cells = append(cells, meshCell{s, d, gbps, c4d.MinPairObs})
		}
	}
	return cells
}

// transfers lays the cells' transfers out in rounds 10 ms apart, each
// round in cell order. A cell with fewer transfers joins the later
// rounds, so every cell's last transfer falls in the last round, after the
// streaming matrix has seen all the others.
func transfers(cells []meshCell) []accl.MsgEvent {
	rounds := 0
	for _, c := range cells {
		rounds = max(rounds, c.transfers)
	}
	const bytes = 45e6 // a millisecond at 360 Gbps
	var msgs []accl.MsgEvent
	for r := 0; r < rounds; r++ {
		for _, c := range cells {
			if r < rounds-c.transfers {
				continue
			}
			start := sim.Time(r) * 10 * sim.Millisecond
			msgs = append(msgs, accl.MsgEvent{Comm: 1, Seq: r + 1, SrcNode: c.src, DstNode: c.dst,
				Bytes: bytes, Start: start, End: start + sim.Time(bytes*8/c.gbps)})
		}
	}
	return msgs
}

// verdict renders a comm-slow finding as its scope and blamed nodes.
func verdict(scope c4d.Scope, nodes ...int) string { return fmt.Sprintf("%v %v", scope, nodes) }

// The batch master, the offline analyzer and the online detector judge
// comm-slow with one rule, so on the same transfers they blame the same
// component. Each case feeds its transfers as one window to a master
// pass, to AnalyzeOffline, and as records through an OnlineDetector.
func TestDetectorsAgreeOnCommSlow(t *testing.T) {
	slowRow := map[[2]int]float64{}
	for d := 0; d < 8; d++ {
		if d != 3 {
			slowRow[[2]int{3, d}] = 100
		}
	}
	slowCol := map[[2]int]float64{}
	for s := 0; s < 8; s++ {
		if s != 5 {
			slowCol[[2]int{s, 5}] = 100
		}
	}
	// Row 2 is slow in its mean with four of its seven cells slow, fewer
	// than the 60% a fraction-of-cells rule would want; its slow and
	// healthy cells alternate, so its EWMA stays slow whenever a slow cell
	// is checked.
	rowAndCell := map[[2]int]float64{{2, 0}: 1, {2, 3}: 1, {2, 5}: 1, {2, 7}: 1, {6, 7}: 50}
	for _, tc := range []struct {
		name  string
		cells []meshCell
		want  []string
	}{
		{"healthy", fullMesh(8, nil), nil},
		{"one slow cell", fullMesh(8, map[[2]int]float64{{3, 4}: 90}), []string{verdict(c4d.ScopeConnection, 3, 4)}},
		{"slow row", fullMesh(8, slowRow), []string{verdict(c4d.ScopeNodeTx, 3)}},
		{"slow column", fullMesh(8, slowCol), []string{verdict(c4d.ScopeNodeRx, 5)}},
		{"slow row and a slow cell", fullMesh(8, rowAndCell),
			[]string{verdict(c4d.ScopeNodeTx, 2), verdict(c4d.ScopeConnection, 6, 7)}},
		// The healthy direction carries most transfers, so the sketch's
		// median is its bandwidth.
		{"slow cell of two members", []meshCell{{0, 1, 90, c4d.MinPairObs}, {1, 0, 360, 22}},
			[]string{verdict(c4d.ScopeConnection, 0, 1)}},
	} {
		msgs := transfers(tc.cells)
		var nodes []int
		for _, c := range tc.cells {
			if !slices.Contains(nodes, c.src) {
				nodes = append(nodes, c.src)
			}
		}

		eng := sim.NewEngine()
		m := c4d.NewMaster(eng, c4d.Config{})
		m.OnCommCreate(accl.CommInfo{Comm: 1, Nodes: nodes})
		for _, ev := range msgs {
			m.OnMessage(ev)
		}
		eng.RunUntil(c4d.ReportInterval)
		m.Stop()
		var batch []string
		for _, e := range m.Events() {
			switch {
			case e.Syndrome != c4d.CommSlow:
			case e.Scope == c4d.ScopeConnection:
				batch = append(batch, verdict(e.Scope, e.Node, e.Peer))
			default:
				batch = append(batch, verdict(e.Scope, e.Node))
			}
		}

		var offline []string
		for _, of := range c4d.AnalyzeOffline(msgs, 10*sim.Second, c4d.DefaultConfig().Kappa) {
			switch f := of.Finding; f.Scope {
			case c4d.ScopeNodeTx:
				offline = append(offline, verdict(f.Scope, f.Src))
			case c4d.ScopeNodeRx:
				offline = append(offline, verdict(f.Scope, f.Dst))
			default:
				offline = append(offline, verdict(f.Scope, f.Src, f.Dst))
			}
		}

		d := NewOnlineDetector(sim.NewEngine(), DetectorConfig{})
		d.Observe(Record{Node: -1, Kind: KindCommCreate, Comm: 1, Nodes: nodes})
		for _, ev := range msgs {
			d.Observe(RecordOfMsg(ev))
		}
		var online []string
		for _, det := range d.Detections() {
			// The online detector names the scope only in its detail.
			scope := c4d.ScopeConnection
			switch {
			case det.Syndrome != c4d.CommSlow:
				continue
			case strings.Contains(det.Detail, "row"):
				scope = c4d.ScopeNodeTx
			case strings.Contains(det.Detail, "column"):
				scope = c4d.ScopeNodeRx
			}
			online = append(online, verdict(scope, det.Suspects...))
		}

		for _, got := range []struct {
			detector string
			verdicts []string
		}{{"batch master", batch}, {"offline analyzer", offline}, {"online detector", online}} {
			if !slices.Equal(got.verdicts, tc.want) {
				t.Errorf("%s: %s blamed %q, want %q", tc.name, got.detector, got.verdicts, tc.want)
			}
		}
	}
}
