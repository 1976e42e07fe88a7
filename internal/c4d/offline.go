package c4d

import (
	"fmt"
	"math"
	"sort"

	"c4/internal/accl"
	"c4/internal/sim"
)

// This file implements the offline "C4 Analyzer" of the paper's Fig 5: it
// replays archived transport records through the batch master's window
// localizer, and so through the comm-slow rule both detectors apply, one
// fixed window at a time. The archive is the JSONL telemetry stream; its
// msg records are the paper's conn stats.

// OfflineFinding is one windowed analyzer result.
type OfflineFinding struct {
	WindowStart sim.Time
	WindowEnd   sim.Time
	Comm        int
	Finding     MatrixFinding
}

// String renders the finding as one line, naming the window, the
// communicator and the blamed NIC side or connection.
func (of OfflineFinding) String() string {
	f := of.Finding
	var what string
	switch f.Scope {
	case ScopeNodeTx:
		what = fmt.Sprintf("node %d Tx", f.Src)
	case ScopeNodeRx:
		what = fmt.Sprintf("node %d Rx", f.Dst)
	default:
		what = fmt.Sprintf("connection n%d->n%d", f.Src, f.Dst)
	}
	return fmt.Sprintf("[%v..%v] comm %d: %s slow (x%.1f)", of.WindowStart, of.WindowEnd, of.Comm, what, f.Slowdown)
}

// offlineWindow is one analysis window's records of one communicator.
type offlineWindow struct {
	start sim.Time // a multiple of the window length
	comm  int
	pairs pairSums
}

// offlineWindows buckets transfers by the window their end falls in,
// [k*window, (k+1)*window), and returns the buckets that hold records in
// (window, communicator) order: at most one per record, however far apart
// the records lie. Records ending before time 0 fall in no window.
func offlineWindows(msgs []accl.MsgEvent, window sim.Time) []*offlineWindow {
	type key struct {
		start sim.Time
		comm  int
	}
	byKey := map[key]*offlineWindow{}
	var out []*offlineWindow
	for _, m := range msgs {
		if m.End < 0 {
			continue
		}
		k := key{m.End / window * window, m.Comm}
		w := byKey[k]
		if w == nil {
			w = &offlineWindow{start: k.start, comm: k.comm, pairs: pairSums{}}
			byKey[k] = w
			out = append(out, w)
		}
		w.pairs.add(m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].comm < out[j].comm
	})
	return out
}

// AnalyzeOffline replays transport records through the comm-slow
// localizer in fixed windows — the paper's "C4 Analyzer" box in Fig 5,
// used for post-mortems on archived telemetry. Only windows that hold
// records are analyzed; a window's end saturates at the largest time.
func AnalyzeOffline(msgs []accl.MsgEvent, window sim.Time, kappa float64) []OfflineFinding {
	if window <= 0 {
		return nil
	}
	var out []OfflineFinding
	for _, w := range offlineWindows(msgs, window) {
		end := w.start + min(window, math.MaxInt64-w.start)
		for _, f := range w.pairs.localize(kappa) {
			out = append(out, OfflineFinding{
				WindowStart: w.start, WindowEnd: end, Comm: w.comm, Finding: f,
			})
		}
	}
	return out
}
