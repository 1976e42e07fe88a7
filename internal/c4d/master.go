package c4d

import (
	"fmt"
	"sort"

	"c4/internal/accl"
	"c4/internal/sim"
	"c4/internal/trace"
)

// Config tunes the master's detectors.
type Config struct {
	// ReportInterval is the agent reporting period — the quantum of
	// detection latency. The paper's deployment detects in "tens of
	// seconds"; the default is 5 s.
	ReportInterval sim.Time
	// HangTimeout is how long a collective may make no progress before the
	// hang detectors fire. Default 30 s (vs the 30 *minutes* of the
	// PyTorch elastic-agent baseline the paper complains about).
	HangTimeout sim.Time
	// Kappa is the slowdown multiple considered anomalous. Default 2.
	Kappa float64
	// RowColFrac is the fraction of a matrix row/column that must be
	// anomalous to blame a NIC side instead of a connection. Default 0.6.
	RowColFrac float64
	// WaitKappa is how many times the runner-up a straggler's waited-on
	// time must exceed. Default 3.
	WaitKappa float64
	// MinWait is the absolute waited-on floor per window. Default 50 ms.
	MinWait sim.Time
	// DedupInterval suppresses repeated identical findings. Default 60 s.
	DedupInterval sim.Time
	// SmoothingWindows is the number of reporting windows the straggler
	// detector averages over, smoothing random load variation (the EP
	// extension discussed in §V). Default 3.
	SmoothingWindows int

	// Trace, when enabled, records each finding as an instant "detect"
	// span parented under the tracer's current "fault" mark — the causal
	// fault-window → detection link — and republishes it as the "detect"
	// mark for steering to parent its actions under. Optional.
	Trace *trace.Tracer
}

// DefaultConfig returns the tuning used across the repository.
func DefaultConfig() Config {
	return Config{
		ReportInterval:   5 * sim.Second,
		HangTimeout:      30 * sim.Second,
		Kappa:            2,
		RowColFrac:       0.6,
		WaitKappa:        3,
		MinWait:          50 * sim.Millisecond,
		DedupInterval:    60 * sim.Second,
		SmoothingWindows: 3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ReportInterval <= 0 {
		c.ReportInterval = d.ReportInterval
	}
	if c.HangTimeout <= 0 {
		c.HangTimeout = d.HangTimeout
	}
	if c.Kappa <= 0 {
		c.Kappa = d.Kappa
	}
	if c.RowColFrac <= 0 {
		c.RowColFrac = d.RowColFrac
	}
	if c.WaitKappa <= 0 {
		c.WaitKappa = d.WaitKappa
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

	// Hang tracking.
	arriveSeq   map[int]int      // node -> highest seq with an observed kernel launch
	completeSeq map[int]int      // node -> highest completed seq
	seqFirstArr map[int]sim.Time // seq -> first arrival time across nodes
	lastMsgAt   sim.Time         // last transport progress in this comm

	// Per-operation transport evidence (persists across windows: a hang is
	// detected long after the healthy edges of the stalled op completed).
	// opMin is the lowest op sequence the maps hold, so Ingest prunes them
	// only when it leaves the window instead of on every message.
	opTx  map[int]map[int]bool // seq -> nodes with tx progress in that op
	opRx  map[int]map[int]bool // seq -> nodes with rx progress in that op
	opMin int

	// Window accumulators (reset each analysis pass).
	pairs  map[[2]int]*pairAgg
	txSeen map[int]bool
	rxSeen map[int]bool
	waits  map[int]sim.Time // node -> time peers spent waiting on it (window)

	// Smoothed waited-on totals for the straggler detector.
	waitHist map[int][]sim.Time
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
		cfg:      cfg.withDefaults(),
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
		nodes:       append([]int(nil), ci.Nodes...),
		arriveSeq:   make(map[int]int),
		completeSeq: make(map[int]int),
		seqFirstArr: make(map[int]sim.Time),
		opTx:        make(map[int]map[int]bool),
		opRx:        make(map[int]map[int]bool),
		pairs:       make(map[[2]int]*pairAgg),
		txSeen:      make(map[int]bool),
		rxSeen:      make(map[int]bool),
		waits:       make(map[int]sim.Time),
		waitHist:    make(map[int][]sim.Time),
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
		switch ev.Phase {
		case accl.PhaseArrive:
			if ev.Seq > cs.arriveSeq[ev.Node] {
				cs.arriveSeq[ev.Node] = ev.Seq
			}
			if t, ok := cs.seqFirstArr[ev.Seq]; !ok || ev.Time < t {
				cs.seqFirstArr[ev.Seq] = ev.Time
			}
		case accl.PhaseComplete:
			if ev.Seq > cs.completeSeq[ev.Node] {
				cs.completeSeq[ev.Node] = ev.Seq
			}
		}
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
		cs.txSeen[ev.SrcNode] = true
		cs.rxSeen[ev.DstNode] = true
		if cs.opTx[ev.Seq] == nil {
			cs.opTx[ev.Seq] = make(map[int]bool)
			cs.opRx[ev.Seq] = make(map[int]bool)
			if len(cs.opTx) == 1 || ev.Seq < cs.opMin {
				cs.opMin = ev.Seq
			}
		}
		cs.opTx[ev.Seq][ev.SrcNode] = true
		cs.opRx[ev.Seq][ev.DstNode] = true
		// Bound memory: evidence for long-finished operations is useless.
		// Nothing is older than the window while the lowest op is in it.
		if cs.opMin < ev.Seq-8 {
			cs.opMin = ev.Seq
			for seq := range cs.opTx {
				if seq < ev.Seq-8 {
					delete(cs.opTx, seq)
					delete(cs.opRx, seq)
				} else {
					cs.opMin = min(cs.opMin, seq)
				}
			}
		}
		if ev.End > cs.lastMsgAt {
			cs.lastMsgAt = ev.End
		}
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
		cs.txSeen = make(map[int]bool)
		cs.rxSeen = make(map[int]bool)
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

// detectHangs finds workers that never entered an operation their peers
// entered (non-comm hang) and operations whose transport stopped making
// progress (comm hang), localizing the node with neither tx nor rx
// progress.
func (m *Master) detectHangs(now sim.Time, comm int, cs *commState) {
	maxArr := 0
	for _, n := range cs.nodes {
		if s := cs.arriveSeq[n]; s > maxArr {
			maxArr = s
		}
	}
	if maxArr == 0 {
		return
	}
	firstArr := cs.seqFirstArr[maxArr]
	age := now - firstArr

	// Non-communication hang: a peer is missing from op maxArr.
	if age >= m.cfg.HangTimeout {
		for _, n := range cs.nodes {
			if cs.arriveSeq[n] < maxArr {
				m.emit(Event{
					Time: now, Comm: comm, Syndrome: NonCommHang, Scope: ScopeNode,
					Node: n, Peer: -1, Severity: age.Seconds(),
					Detail: fmt.Sprintf("no kernel launch for op %d (peers launched %v ago)", maxArr, age),
				})
			}
		}
	}

	// Communication hang: everyone entered op maxArr, nobody finished it,
	// and the transport has been silent for HangTimeout.
	allArrived := true
	anyCompleted := false
	for _, n := range cs.nodes {
		if cs.arriveSeq[n] < maxArr {
			allArrived = false
		}
		if cs.completeSeq[n] >= maxArr {
			anyCompleted = true
		}
	}
	if !allArrived || anyCompleted {
		return
	}
	lastProgress := cs.lastMsgAt
	if firstArr > lastProgress {
		lastProgress = firstArr
	}
	if now-lastProgress < m.cfg.HangTimeout {
		return
	}
	// Localize: nodes with neither transmit nor receive progress within
	// the stalled operation while peers progressed. Per-op evidence is
	// essential — the healthy edges of the stalled op typically completed
	// several reporting windows before the timeout fires.
	tx, rx := cs.opTx[maxArr], cs.opRx[maxArr]
	anyTraffic := len(tx) > 0 || len(rx) > 0
	var blamed []int
	for _, n := range cs.nodes {
		if !tx[n] && !rx[n] {
			blamed = append(blamed, n)
		}
	}
	if !anyTraffic || len(blamed) == 0 || len(blamed) == len(cs.nodes) {
		// No discriminating evidence this window: report the hang against
		// the communicator's first member so steering still reacts, with
		// scope widened in the detail string.
		m.emit(Event{
			Time: now, Comm: comm, Syndrome: CommHang, Scope: ScopeNode,
			Node: cs.nodes[0], Peer: -1, Severity: (now - lastProgress).Seconds(),
			Detail: fmt.Sprintf("op %d stalled %v; no single-node syndrome", maxArr, now-lastProgress),
		})
		return
	}
	for _, n := range blamed {
		m.emit(Event{
			Time: now, Comm: comm, Syndrome: CommHang, Scope: ScopeNode,
			Node: n, Peer: -1, Severity: (now - lastProgress).Seconds(),
			Detail: fmt.Sprintf("op %d stalled %v; node has no tx/rx progress", maxArr, now-lastProgress),
		})
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
	for _, f := range AnalyzeDelayMatrix(bw, m.cfg.Kappa, m.cfg.RowColFrac) {
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

// detectStraggler aggregates receiver-driven wait chains: the node peers
// spend by far the most time waiting on is compute- or input-bound
// (non-communication slow). Totals are smoothed over SmoothingWindows
// reporting periods to absorb random variation (§V's EP discussion).
func (m *Master) detectStraggler(now sim.Time, comm int, cs *commState) {
	for _, n := range cs.nodes {
		hist := append(cs.waitHist[n], cs.waits[n])
		if len(hist) > m.cfg.SmoothingWindows {
			hist = hist[len(hist)-m.cfg.SmoothingWindows:]
		}
		cs.waitHist[n] = hist
	}
	var top, second sim.Time
	topNode := -1
	for _, n := range cs.nodes {
		var sum sim.Time
		for _, w := range cs.waitHist[n] {
			sum += w
		}
		avg := sum / sim.Time(len(cs.waitHist[n]))
		if avg > top {
			second = top
			top, topNode = avg, n
		} else if avg > second {
			second = avg
		}
	}
	if topNode < 0 || top < m.cfg.MinWait {
		return
	}
	if second > 0 && float64(top) < m.cfg.WaitKappa*float64(second) {
		return
	}
	m.emit(Event{
		Time: now, Comm: comm, Syndrome: NonCommSlow, Scope: ScopeNode,
		Node: topNode, Peer: -1,
		Severity: top.Seconds() / m.cfg.ReportInterval.Seconds(),
		Detail:   fmt.Sprintf("peers waited %v on this node per window", top),
	})
}
