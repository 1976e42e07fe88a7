package c4d

import (
	"fmt"
	"slices"

	"c4/internal/accl"
	"c4/internal/sim"
	"c4/internal/trace"
)

// The C4D thresholds no caller tunes; each says which code reads it.
const (
	// ReportInterval is the reporting period — the quantum of detection
	// latency. The paper's deployment detects in "tens of seconds". The
	// online detector, which has no reporting tick, decays its wait
	// accumulators with it as their time constant, the streaming analogue
	// of one window's wait total.
	ReportInterval = 5 * sim.Second
	// RowColFrac is the fraction of a matrix row/column that must be
	// anomalous to blame a NIC side instead of a connection. Batch master
	// only.
	RowColFrac = 0.6
	// WaitKappa is how many times the runner-up a straggler's waited-on
	// time must exceed (see Straggler). Both detectors.
	WaitKappa = 3.0
	// MinWait is the absolute waited-on floor: per window for the batch
	// master, of the decayed accumulator for the online detector. Both
	// detectors.
	MinWait = 50 * sim.Millisecond
	// DedupInterval suppresses repeated identical findings. Both detectors.
	DedupInterval = 60 * sim.Second
	// SmoothingWindows is the number of reporting windows the straggler
	// rule averages over, smoothing random load variation (the EP
	// extension discussed in §V). Batch master only.
	SmoothingWindows = 3
)

// Config holds the tunable C4D thresholds. The batch master and the
// online detector (telemetry.DetectorConfig is this type) judge with the
// same values; each field says which detector reads it.
type Config struct {
	// HangTimeout is how long a collective may make no progress before the
	// hang detectors fire. Default 30 s (vs the 30 *minutes* of the
	// PyTorch elastic-agent baseline the paper complains about).
	HangTimeout sim.Time
	// Kappa is the slowdown multiple considered anomalous. Default 2.
	Kappa float64

	// Trace, when enabled, records each finding as an instant "detect"
	// span parented under the tracer's current "fault" mark — the causal
	// fault-window → detection link — and republishes it as the "detect"
	// mark for steering to parent its actions under. Optional; batch
	// master only.
	Trace *trace.Tracer
}

// DefaultConfig returns the tuning used across the repository.
func DefaultConfig() Config {
	return Config{HangTimeout: 30 * sim.Second, Kappa: 2}
}

// WithDefaults fills every unset (non-positive) threshold from
// DefaultConfig.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.HangTimeout <= 0 {
		c.HangTimeout = d.HangTimeout
	}
	if c.Kappa <= 0 {
		c.Kappa = d.Kappa
	}
	return c
}

type pairAgg struct {
	bytes float64
	dur   sim.Time
}

type commState struct {
	nodes []int

	// seen flips once any record lands for this communicator; it is what
	// active (and hence the tick's idle skip) keys on.
	seen bool

	hang *HangWatch

	// Window accumulators, cleared in place after each analysis pass so a
	// warm window re-fills the same entries.
	pairs map[[2]int]pairAgg
	waits map[int]sim.Time // node -> time peers spent waiting on it (window)

	// waitRing holds each member's wait totals of the last
	// SmoothingWindows windows, member i's at [i*SmoothingWindows,
	// (i+1)*SmoothingWindows); windows counts the passes so far. avgWait
	// is the straggler rule's input built from them (reused across passes).
	waitRing []sim.Time
	windows  int
	avgWait  []float64
}

// Master is the central C4D analyzer. It is the accl.StatsSink ACCL's
// monitoring records flow into: each record is folded into its
// communicator's window state as ACCL emits it, and every ReportInterval
// the master analyzes the window (paper Fig 5, where per-worker agents
// forward the records).
type Master struct {
	cfg      Config
	eng      *sim.Engine
	ticker   *sim.Event
	comms    map[int]*commState
	handlers []func(Event)
	events   []Event
	lastFire map[findingKey]sim.Time

	// ids holds the keys of comms, ascending: the pass order. It is
	// replaced, never edited in place, so a pass whose finding handler
	// opens or closes a communicator keeps walking the order it started.
	ids []int

	// fresh says a record arrived since the last pass; skipped counts the
	// ticks that ran no pass.
	fresh   bool
	skipped int

	// Work accounting: full-recompute analysis passes and delay-matrix
	// cells visited across them. The telemetry scale sweep compares these
	// against the streaming detector's O(1)-per-record updates.
	passes     int
	cellVisits int
}

// NewMaster creates a master with the given (defaulted) config and arms
// its reporting tick on the engine.
func NewMaster(eng *sim.Engine, cfg Config) *Master {
	m := &Master{
		cfg:      cfg.WithDefaults(),
		eng:      eng,
		comms:    make(map[int]*commState),
		lastFire: make(map[findingKey]sim.Time),
	}
	m.ticker = sim.NewEvent(sim.Func(m.tick))
	eng.Arm(m.ticker, eng.Now()+ReportInterval)
	return m
}

// tick is the reporting loop: one analysis pass, then re-arm the master's
// one ticker event. A tick with no record since the last pass and no
// evidence that could ripen (active is false) runs no pass: before the
// job's first collective and after its communicators close, a pass is
// pure overhead. A hang produces no records either, but its communicator
// was seen before falling silent, so the timeout detectors keep running.
func (m *Master) tick() {
	if m.fresh || m.active() {
		m.fresh = false
		m.analyze(m.eng.Now())
	} else {
		m.skipped++
	}
	m.eng.Arm(m.ticker, m.eng.Now()+ReportInterval)
}

// Stop halts the reporting loop.
func (m *Master) Stop() { m.ticker.Cancel() }

// SkippedPasses reports how many reporting ticks ran no pass.
func (m *Master) SkippedPasses() int { return m.skipped }

// Config returns the master's effective configuration.
func (m *Master) Config() Config { return m.cfg }

// Subscribe registers a handler for findings (the job steering service).
func (m *Master) Subscribe(h func(Event)) { m.handlers = append(m.handlers, h) }

// Events returns every finding emitted so far.
func (m *Master) Events() []Event { return append([]Event(nil), m.events...) }

// OnCommCreate implements accl.StatsSink: it starts tracking the
// communicator's membership.
func (m *Master) OnCommCreate(ci accl.CommInfo) {
	if i, found := slices.BinarySearch(m.ids, ci.Comm); !found {
		m.ids = slices.Insert(slices.Clip(m.ids), i, ci.Comm)
	}
	m.comms[ci.Comm] = &commState{
		nodes:    append([]int(nil), ci.Nodes...),
		hang:     NewHangWatch(ci.Nodes),
		pairs:    make(map[[2]int]pairAgg),
		waits:    make(map[int]sim.Time),
		waitRing: make([]sim.Time, len(ci.Nodes)*SmoothingWindows),
	}
}

// OnCommClose implements accl.StatsSink: it drops a closed communicator's
// state, since a torn-down communicator can no longer hang.
func (m *Master) OnCommClose(comm int) {
	if i, found := slices.BinarySearch(m.ids, comm); found {
		m.ids = slices.Delete(slices.Clone(m.ids), i, i+1)
	}
	delete(m.comms, comm)
}

// OnCollective implements accl.StatsSink.
func (m *Master) OnCollective(ev accl.CollEvent) {
	if cs := m.arrive(ev.Comm); cs != nil {
		cs.hang.Coll(ev)
	}
}

// OnMessage implements accl.StatsSink. A pair's transfers are summed in
// emission order.
func (m *Master) OnMessage(ev accl.MsgEvent) {
	cs := m.arrive(ev.Comm)
	if cs == nil {
		return
	}
	key := [2]int{ev.SrcNode, ev.DstNode}
	agg := cs.pairs[key]
	agg.bytes += ev.Bytes
	agg.dur += ev.Duration()
	cs.pairs[key] = agg
	cs.hang.Msg(ev)
}

// OnWait implements accl.StatsSink.
func (m *Master) OnWait(ev accl.WaitEvent) {
	if cs := m.arrive(ev.Comm); cs != nil {
		cs.waits[ev.On] += ev.Dur
	}
}

// arrive notes a record for the next tick and returns its communicator's
// state, nil when the communicator is unknown or closed. Such a record
// still makes the next tick run a pass.
func (m *Master) arrive(comm int) *commState {
	m.fresh = true
	cs := m.comms[comm]
	if cs != nil {
		cs.seen = true
	}
	return cs
}

// active reports whether any registered communicator has ever produced a
// record. A silent-but-seen communicator may be hanging — its timeout
// detectors must keep running on records folded windows ago — whereas a
// deployment that never saw a record cannot ripen into any finding.
func (m *Master) active() bool {
	for _, cs := range m.comms {
		if cs.seen {
			return true
		}
	}
	return false
}

// AnalyzePasses reports how many full analysis passes have run.
func (m *Master) AnalyzePasses() int { return m.passes }

// MatrixCellVisits reports how many delay-matrix cells the comm-slow
// detector has recomputed across all passes — the batch analyzer's work
// metric, which grows with fleet size per pass where the streaming
// detector pays O(1) per record.
func (m *Master) MatrixCellVisits() int { return m.cellVisits }

// analyze runs all detectors over the window folded since the last pass
// and resets the window accumulators.
func (m *Master) analyze(now sim.Time) {
	m.passes++
	for _, id := range m.ids {
		cs := m.comms[id]
		m.detectHangs(now, id, cs)
		m.detectCommSlow(now, id, cs)
		m.detectStraggler(now, id, cs)
		clear(cs.pairs)
		clear(cs.waits)
	}
}

// findingKey identifies a finding for deduplication.
type findingKey struct {
	comm       int
	syndrome   Syndrome
	scope      Scope
	node, peer int
}

func keyOf(e Event) findingKey { return findingKey{e.Comm, e.Syndrome, e.Scope, e.Node, e.Peer} }

// repeats reports whether an identical finding fired less than
// DedupInterval before e, so emit would drop e. Callers that format a
// detail ask first.
func (m *Master) repeats(e Event) bool {
	last, ok := m.lastFire[keyOf(e)]
	return ok && e.Time-last < DedupInterval
}

func (m *Master) emit(e Event) {
	if m.repeats(e) {
		return
	}
	m.lastFire[keyOf(e)] = e.Time
	m.events = append(m.events, e)
	if tr := m.cfg.Trace; tr.Enabled() {
		sp := tr.Event(tr.Mark("fault"), "detect", e.Syndrome.String())
		sp.Annotate("scope", e.Scope.String())
		sp.Annotate("node", fmt.Sprintf("%d", e.Node))
		tr.SetMark("detect", sp)
	}
	for _, h := range m.handlers {
		h(e)
	}
}

// detectHangs turns the communicator's hang verdict into one finding per
// suspect.
func (m *Master) detectHangs(now sim.Time, comm int, cs *commState) {
	h, ok := cs.hang.Verdict(now, m.cfg.HangTimeout)
	if !ok {
		return
	}
	for _, n := range h.Suspects {
		ev := Event{
			Time: now, Comm: comm, Syndrome: h.Syndrome, Scope: ScopeNode,
			Node: n, Peer: -1, Severity: h.Stalled.Seconds(),
		}
		if m.repeats(ev) {
			continue
		}
		switch {
		case h.Syndrome == NonCommHang:
			ev.Detail = fmt.Sprintf("no kernel launch for op %d (peers launched %v ago)", h.Op, h.Stalled)
		case h.Localized:
			ev.Detail = fmt.Sprintf("op %d stalled %v; node has no tx/rx progress", h.Op, h.Stalled)
		default:
			// No discriminating evidence: the widened scope is in the
			// detail string.
			ev.Detail = fmt.Sprintf("op %d stalled %v; no single-node syndrome", h.Op, h.Stalled)
		}
		m.emit(ev)
	}
}

// detectCommSlow builds the Fig 7 delay matrix from the window's transport
// records and localizes slow cells, rows and columns.
func (m *Master) detectCommSlow(now sim.Time, comm int, cs *commState) {
	m.cellVisits += len(cs.pairs)
	if len(cs.pairs) < 2 {
		return
	}
	bw := make(map[[2]int]float64, len(cs.pairs))
	for key, agg := range cs.pairs {
		if agg.dur <= 0 {
			continue
		}
		bw[key] = agg.bytes * 8 / agg.dur.Seconds()
	}
	for _, f := range AnalyzeDelayMatrix(bw, m.cfg.Kappa, RowColFrac) {
		ev := Event{
			Time: now, Comm: comm, Syndrome: CommSlow, Scope: f.Scope,
			Severity: f.Slowdown, Peer: -1,
		}
		switch f.Scope {
		case ScopeNodeTx:
			ev.Node = f.Src
			ev.Detail = "matrix row slow: source NIC/node Tx degraded"
		case ScopeNodeRx:
			ev.Node = f.Dst
			ev.Detail = "matrix column slow: destination NIC/node Rx degraded"
		default:
			ev.Node, ev.Peer = f.Src, f.Dst
			ev.Detail = "single connection slow"
		}
		m.emit(ev)
	}
}

// detectStraggler applies the straggler rule to receiver-driven wait
// chains: the node peers spend by far the most time waiting on is compute-
// or input-bound (non-communication slow). Totals are averaged over
// SmoothingWindows reporting periods to absorb random variation (§V's EP
// discussion).
func (m *Master) detectStraggler(now sim.Time, comm int, cs *commState) {
	slot := cs.windows % SmoothingWindows
	cs.windows++
	// Until SmoothingWindows passes have run, the slots not yet written
	// hold zero, so summing every slot sums the windows so far.
	count := sim.Time(min(cs.windows, SmoothingWindows))
	cs.avgWait = cs.avgWait[:0]
	for i, n := range cs.nodes {
		ring := cs.waitRing[i*SmoothingWindows : (i+1)*SmoothingWindows]
		ring[slot] = cs.waits[n]
		var sum sim.Time
		for _, w := range ring {
			sum += w
		}
		cs.avgWait = append(cs.avgWait, float64(sum/count))
	}
	i, ok := Straggler(cs.avgWait, float64(MinWait), WaitKappa)
	if !ok {
		return
	}
	top := sim.Time(cs.avgWait[i])
	ev := Event{
		Time: now, Comm: comm, Syndrome: NonCommSlow, Scope: ScopeNode,
		Node: cs.nodes[i], Peer: -1,
		Severity: top.Seconds() / ReportInterval.Seconds(),
	}
	if m.repeats(ev) {
		return
	}
	ev.Detail = fmt.Sprintf("peers waited %v on this node per window", top)
	m.emit(ev)
}

// Straggler is the straggler rule (§III-A) both detectors apply: the
// member its peers wait on most is a straggler when that wait reaches
// minWait and at least waitKappa times the runner-up's. waits holds one
// smoothed wait per member, in any unit shared with minWait. It returns
// the top wait's index (the first on a tie; -1 when no wait is positive)
// and whether the rule fires. A runner-up of 0 passes the ratio test with
// no evidence, so in a two-member communicator the floor alone decides.
func Straggler(waits []float64, minWait, waitKappa float64) (int, bool) {
	var top, second float64
	at := -1
	for i, w := range waits {
		if w > top {
			second = top
			top, at = w, i
		} else if w > second {
			second = w
		}
	}
	if at < 0 || top < minWait {
		return at, false
	}
	if second > 0 && top < waitKappa*second {
		return at, false
	}
	return at, true
}
