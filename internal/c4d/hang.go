package c4d

import (
	"c4/internal/accl"
	"c4/internal/sim"
)

// opWindow is how many of a communicator's newest operations keep their
// first-arrival time and per-op transport evidence. A verdict reads only
// the newest operation's; older entries are kept for late records and
// pruned as the window moves.
const opWindow = 9

// HangWatch holds one communicator's hang evidence and judges it with the
// hang rule both C4D detectors apply (§III-A). A member that never entered
// the newest operation its peers entered is a non-communication hang. An
// operation every member entered, none finished, and whose transport went
// silent is a communication hang, blamed on the members with neither
// transmit nor receive progress in it.
//
// Every operation record folded in must come from a member, and a
// member's completion record must follow its own arrival record: the
// newest-op counters rely on both.
type HangWatch struct {
	nodes []int

	arrived  map[int]int      // member -> highest op it entered
	firstArr map[int]sim.Time // recent op -> first entry across members
	lastMsg  sim.Time         // last transport progress

	// The newest operation entered, how many members entered it, and
	// whether any member finished it: kept per record so Deadline is O(1).
	maxArr       int
	arrivedAtMax int
	completedMax bool

	// Per-operation transport evidence. It persists across reporting
	// windows: a hang ripens long after the healthy edges of the stalled
	// op completed. opMin is the lowest op the maps hold, so Msg walks
	// them only when that op leaves the window.
	opTx  map[int]map[int]bool // op -> members with tx progress in it
	opRx  map[int]map[int]bool // op -> members with rx progress in it
	opMin int
}

// NewHangWatch creates the watch for a communicator of the given members.
func NewHangWatch(nodes []int) *HangWatch {
	return &HangWatch{
		nodes:    append([]int(nil), nodes...),
		arrived:  map[int]int{},
		firstArr: map[int]sim.Time{},
		opTx:     map[int]map[int]bool{},
		opRx:     map[int]map[int]bool{},
	}
}

// Coll folds in one operation-layer record and returns how many map
// entries it walked to prune old first-arrival times.
func (w *HangWatch) Coll(ev accl.CollEvent) (walked int) {
	switch ev.Phase {
	case accl.PhaseArrive:
		if old := w.arrived[ev.Node]; ev.Seq > old {
			w.arrived[ev.Node] = ev.Seq
			switch {
			case ev.Seq > w.maxArr:
				// A new newest operation: this member is its first, and
				// nobody can have finished it yet.
				w.maxArr, w.arrivedAtMax, w.completedMax = ev.Seq, 1, false
				walked = len(w.firstArr)
				for seq := range w.firstArr {
					if seq <= w.maxArr-opWindow {
						delete(w.firstArr, seq)
					}
				}
			case ev.Seq == w.maxArr && old < w.maxArr:
				w.arrivedAtMax++
			}
		}
		if t, ok := w.firstArr[ev.Seq]; !ok || ev.Time < t {
			w.firstArr[ev.Seq] = ev.Time
		}
	case accl.PhaseComplete:
		if ev.Seq >= w.maxArr {
			w.completedMax = true
		}
	}
	return walked
}

// Msg folds in one transport record and returns how many map entries it
// walked to prune old per-op evidence: none unless the lowest op held
// just left the window.
func (w *HangWatch) Msg(ev accl.MsgEvent) (walked int) {
	if ev.End > w.lastMsg {
		w.lastMsg = ev.End
	}
	tx := w.opTx[ev.Seq]
	if tx == nil {
		tx = map[int]bool{}
		w.opTx[ev.Seq] = tx
		w.opRx[ev.Seq] = map[int]bool{}
		if len(w.opTx) == 1 || ev.Seq < w.opMin {
			w.opMin = ev.Seq
		}
	}
	tx[ev.SrcNode] = true
	w.opRx[ev.Seq][ev.DstNode] = true
	if w.opMin <= ev.Seq-opWindow {
		walked = len(w.opTx)
		w.opMin = ev.Seq
		for seq := range w.opTx {
			if seq <= ev.Seq-opWindow {
				delete(w.opTx, seq)
				delete(w.opRx, seq)
			} else {
				w.opMin = min(w.opMin, seq)
			}
		}
	}
	return walked
}

// Deadline is the earliest instant a hang verdict could ripen on the
// evidence so far, or 0 when none can: first arrival + timeout while a
// member is missing from the newest op, the later of first arrival and
// last transport progress + timeout once all entered and none finished.
func (w *HangWatch) Deadline(timeout sim.Time) sim.Time {
	if w.maxArr == 0 || len(w.nodes) == 0 {
		return 0
	}
	first := w.firstArr[w.maxArr]
	switch {
	case w.arrivedAtMax < len(w.nodes):
		return first + timeout
	case !w.completedMax:
		return max(first, w.lastMsg) + timeout
	}
	return 0
}

// Hang is a ripe hang verdict.
type Hang struct {
	Syndrome Syndrome // NonCommHang or CommHang
	Op       int      // the stalled operation
	// Stalled is how long the op has waited: since its first arrival for
	// a non-comm hang, since the last transport progress for a comm hang.
	Stalled sim.Time
	// Suspects are the blamed members, in member order: those missing
	// from the op, or those with no tx/rx progress in it. A comm hang
	// with no discriminating evidence names the first member, so steering
	// still reacts, and leaves Localized false.
	Suspects  []int
	Localized bool
}

// Verdict judges the evidence at now: whether a hang has lasted timeout.
func (w *HangWatch) Verdict(now, timeout sim.Time) (Hang, bool) {
	if w.maxArr == 0 || len(w.nodes) == 0 {
		return Hang{}, false
	}
	op := w.maxArr
	first := w.firstArr[op]
	if w.arrivedAtMax < len(w.nodes) {
		if now-first < timeout {
			return Hang{}, false
		}
		h := Hang{Syndrome: NonCommHang, Op: op, Stalled: now - first}
		for _, n := range w.nodes {
			if w.arrived[n] < op {
				h.Suspects = append(h.Suspects, n)
			}
		}
		return h, true
	}
	last := max(first, w.lastMsg)
	if w.completedMax || now-last < timeout {
		return Hang{}, false
	}
	// Per-op evidence is essential: the healthy edges of the stalled op
	// typically finished several reporting windows before the timeout.
	h := Hang{Syndrome: CommHang, Op: op, Stalled: now - last}
	tx, rx := w.opTx[op], w.opRx[op]
	for _, n := range w.nodes {
		if !tx[n] && !rx[n] {
			h.Suspects = append(h.Suspects, n)
		}
	}
	h.Localized = len(tx)+len(rx) > 0 && len(h.Suspects) > 0 && len(h.Suspects) < len(w.nodes)
	if !h.Localized {
		h.Suspects = []int{w.nodes[0]}
	}
	return h, true
}
