package c4d

import (
	"fmt"
	"sort"

	"c4/internal/accl"
	"c4/internal/sim"
	"c4/internal/trace"
)

// The C4D thresholds no caller tunes; each says which code reads it.
const (
	// ReportInterval is the agent reporting period — the quantum of
	// detection latency. The paper's deployment detects in "tens of
	// seconds". The online detector, which has no reporting tick, decays
	// its wait accumulators with it as their time constant, the streaming
	// analogue of one window's wait total.
	ReportInterval = 5 * sim.Second
	// RowColFrac is the fraction of a matrix row/column that must be
	// anomalous to blame a NIC side instead of a connection. Batch master
	// only.
	RowColFrac = 0.6
	// WaitKappa is how many times the runner-up a straggler's waited-on
	// time must exceed (see Straggler). Both detectors.
	WaitKappa = 3.0
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
	// MinWait is the absolute waited-on floor: per window for the batch
	// master, of the decayed accumulator for the online detector. Default
	// 50 ms.
	MinWait sim.Time
	// DedupInterval suppresses repeated identical findings. Default 60 s.
	DedupInterval sim.Time
	// SmoothingWindows is the number of reporting windows the straggler
	// detector averages over, smoothing random load variation (the EP
	// extension discussed in §V). Default 3. Batch master only.
	SmoothingWindows int

	// Trace, when enabled, records each finding as an instant "detect"
	// span parented under the tracer's current "fault" mark — the causal
	// fault-window → detection link — and republishes it as the "detect"
	// mark for steering to parent its actions under. Optional; batch
	// master only.
	Trace *trace.Tracer
}

// DefaultConfig returns the tuning used across the repository.
func DefaultConfig() Config {
	return Config{
		HangTimeout:      30 * sim.Second,
		Kappa:            2,
		MinWait:          50 * sim.Millisecond,
		DedupInterval:    60 * sim.Second,
		SmoothingWindows: 3,
	}
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
	if c.MinWait <= 0 {
		c.MinWait = d.MinWait
	}
	if c.DedupInterval <= 0 {
		c.DedupInterval = d.DedupInterval
	}
	if c.SmoothingWindows <= 0 {
		c.SmoothingWindows = d.SmoothingWindows
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
	// Active() (and hence the fleet's empty-pass skip) keys on.
	seen bool

	hang *HangWatch

	// Window accumulators (reset each analysis pass).
	pairs map[[2]int]*pairAgg
	waits map[int]sim.Time // node -> time peers spent waiting on it (window)

	// Per-window wait totals of the last SmoothingWindows windows, and the
	// straggler rule's input built from them (reused across passes).
	waitHist map[int][]sim.Time
	avgWait  []float64
}

// Master is the central C4D analyzer.
type Master struct {
	cfg      Config
	comms    map[int]*commState
	handlers []func(Event)
	events   []Event
	lastFire map[string]sim.Time

	// Work accounting: full-recompute analysis passes and delay-matrix
	// cells visited across them. The telemetry scale sweep compares these
	// against the streaming detector's O(1)-per-record updates.
	passes     int
	cellVisits int
}

// NewMaster creates a master with the given (defaulted) config.
func NewMaster(cfg Config) *Master {
	return &Master{
		cfg:      cfg.WithDefaults(),
		comms:    make(map[int]*commState),
		lastFire: make(map[string]sim.Time),
	}
}

// Config returns the master's effective configuration.
func (m *Master) Config() Config { return m.cfg }

// Subscribe registers a handler for findings (the job steering service).
func (m *Master) Subscribe(h func(Event)) { m.handlers = append(m.handlers, h) }

// Events returns every finding emitted so far.
func (m *Master) Events() []Event { return append([]Event(nil), m.events...) }

// RegisterComm tells the master about a communicator's membership.
func (m *Master) RegisterComm(ci accl.CommInfo) {
	m.comms[ci.Comm] = &commState{
		nodes:    append([]int(nil), ci.Nodes...),
		hang:     NewHangWatch(ci.Nodes),
		pairs:    make(map[[2]int]*pairAgg),
		waits:    make(map[int]sim.Time),
		waitHist: make(map[int][]sim.Time),
	}
}

// UnregisterComm drops a closed communicator's state: a torn-down
// communicator can no longer hang.
func (m *Master) UnregisterComm(comm int) {
	delete(m.comms, comm)
}

// Active implements Detector: true while any registered communicator has
// ever produced a record. A silent-but-seen communicator may be hanging —
// its timeout detectors must keep running on records ingested windows ago
// — whereas a deployment that never saw a record cannot ripen into any
// finding, so analysis passes over it are pure waste.
func (m *Master) Active() bool {
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

// Ingest absorbs one agent report into the per-communicator state.
func (m *Master) Ingest(r Report) {
	for _, ev := range r.Colls {
		cs := m.comms[ev.Comm]
		if cs == nil {
			continue
		}
		cs.seen = true
		cs.hang.Coll(ev)
	}
	for _, ev := range r.Messages {
		cs := m.comms[ev.Comm]
		if cs == nil {
			continue
		}
		cs.seen = true
		key := [2]int{ev.SrcNode, ev.DstNode}
		agg := cs.pairs[key]
		if agg == nil {
			agg = &pairAgg{}
			cs.pairs[key] = agg
		}
		agg.bytes += ev.Bytes
		agg.dur += ev.Duration()
		cs.hang.Msg(ev)
	}
	for _, ev := range r.Waits {
		cs := m.comms[ev.Comm]
		if cs == nil {
			continue
		}
		cs.seen = true
		cs.waits[ev.On] += ev.Dur
	}
}

// Analyze runs all detectors over the just-ingested window and resets the
// window accumulators.
func (m *Master) Analyze(now sim.Time) {
	m.passes++
	ids := make([]int, 0, len(m.comms))
	for id := range m.comms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		cs := m.comms[id]
		m.detectHangs(now, id, cs)
		m.detectCommSlow(now, id, cs)
		m.detectStraggler(now, id, cs)
		// Reset window accumulators.
		cs.pairs = make(map[[2]int]*pairAgg)
		cs.waits = make(map[int]sim.Time)
	}
}

func (m *Master) emit(e Event) {
	key := fmt.Sprintf("%d/%v/%v/%d/%d", e.Comm, e.Syndrome, e.Scope, e.Node, e.Peer)
	if last, ok := m.lastFire[key]; ok && e.Time-last < m.cfg.DedupInterval {
		return
	}
	m.lastFire[key] = e.Time
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
	for _, n := range cs.nodes {
		hist := append(cs.waitHist[n], cs.waits[n])
		if len(hist) > m.cfg.SmoothingWindows {
			hist = hist[len(hist)-m.cfg.SmoothingWindows:]
		}
		cs.waitHist[n] = hist
	}
	cs.avgWait = cs.avgWait[:0]
	for _, n := range cs.nodes {
		var sum sim.Time
		for _, w := range cs.waitHist[n] {
			sum += w
		}
		cs.avgWait = append(cs.avgWait, float64(sum/sim.Time(len(cs.waitHist[n]))))
	}
	i, ok := Straggler(cs.avgWait, float64(m.cfg.MinWait), WaitKappa)
	if !ok {
		return
	}
	top := sim.Time(cs.avgWait[i])
	m.emit(Event{
		Time: now, Comm: comm, Syndrome: NonCommSlow, Scope: ScopeNode,
		Node: cs.nodes[i], Peer: -1,
		Severity: top.Seconds() / ReportInterval.Seconds(),
		Detail:   fmt.Sprintf("peers waited %v on this node per window", top),
	})
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
