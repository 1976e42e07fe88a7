package c4d

import (
	"cmp"
	"slices"

	"c4/internal/accl"
	"c4/internal/sim"
)

// Agent is a C4a agent: it runs beside one worker, buffers the ACCL
// monitoring records that worker produces, and ships them to the master on
// every reporting tick (paper Fig 5). Transport records are collected on
// the sending side, where the QP counters live.
type Agent struct {
	Node int

	msgs  []accl.MsgEvent
	colls []accl.CollEvent
	waits []accl.WaitEvent
}

// Report is one agent->master batch.
type Report struct {
	Node     int
	Messages []accl.MsgEvent
	Colls    []accl.CollEvent
	Waits    []accl.WaitEvent
}

// report is the agent's batch since the last tick. It aliases the agent's
// buffers, which reset keeps for the next batch, so a detector must not
// retain its slices (Detector.Ingest).
func (a *Agent) report() Report {
	return Report{Node: a.Node, Messages: a.msgs, Colls: a.colls, Waits: a.waits}
}

// reset empties the buffers and keeps their capacity.
func (a *Agent) reset() {
	a.msgs, a.colls, a.waits = a.msgs[:0], a.colls[:0], a.waits[:0]
}

// records reports how many records the agent holds.
func (a *Agent) records() int { return len(a.msgs) + len(a.colls) + len(a.waits) }

// Fleet fans ACCL monitoring records out to per-node agents and drives the
// periodic reporting loop. It implements accl.StatsSink, so it plugs
// directly into a Communicator's Config.Sink. Agents keep their record
// buffers across ticks, so a warm fleet's reporting allocates nothing.
type Fleet struct {
	det      Detector
	interval sim.Time
	agents   map[int]*Agent
	order    []*Agent // agents by node, the reporting order
	eng      *sim.Engine
	ticker   *sim.Event
	skipped  int
}

// NewFleet creates the agent fleet reporting to the batch master and
// starts the reporting ticker.
func NewFleet(eng *sim.Engine, master *Master) *Fleet {
	return NewFleetDetector(eng, master, ReportInterval)
}

// NewFleetDetector creates a fleet reporting to any Detector on the given
// interval (<= 0 falls back to the default reporting interval).
func NewFleetDetector(eng *sim.Engine, det Detector, interval sim.Time) *Fleet {
	if interval <= 0 {
		interval = ReportInterval
	}
	f := &Fleet{det: det, interval: interval, agents: make(map[int]*Agent), eng: eng}
	f.ticker = sim.NewEvent(sim.Func(f.tick))
	eng.Arm(f.ticker, eng.Now()+interval)
	return f
}

// tick is the reporting loop: report, then re-arm the fleet's one ticker
// event.
func (f *Fleet) tick() {
	f.reportAll()
	f.eng.Arm(f.ticker, f.eng.Now()+f.interval)
}

// SkippedPasses reports how many reporting ticks were elided because every
// agent was empty and the detector held no ripening evidence.
func (f *Fleet) SkippedPasses() int { return f.skipped }

// Stop halts the reporting loop.
func (f *Fleet) Stop() {
	f.ticker.Cancel()
}

func (f *Fleet) agent(node int) *Agent {
	a := f.agents[node]
	if a == nil {
		a = &Agent{Node: node}
		f.agents[node] = a
		i, _ := slices.BinarySearchFunc(f.order, node, func(a *Agent, node int) int { return cmp.Compare(a.Node, node) })
		f.order = slices.Insert(f.order, i, a)
	}
	return a
}

// reportAll flushes every agent to the master in deterministic order, then
// triggers one analysis pass. A tick where every agent flushed zero
// records AND the detector holds no evidence that could ripen (Active is
// false) is skipped outright: before the job's first collective and after
// its communicators close, a full Analyze pass per tick is pure overhead.
// A hang produces no records either, but its communicator was seen before
// falling silent, so Active stays true and the timeout detectors keep
// running.
func (f *Fleet) reportAll() {
	records := 0
	for _, a := range f.order {
		records += a.records()
	}
	if records == 0 && !f.det.Active() {
		f.skipped++
		return
	}
	for _, a := range f.order {
		f.det.Ingest(a.report())
		a.reset()
	}
	f.det.Analyze(f.eng.Now())
}

// OnCommCreate implements accl.StatsSink.
func (f *Fleet) OnCommCreate(ci accl.CommInfo) {
	for _, n := range ci.Nodes {
		f.agent(n) // ensure agents exist for all members
	}
	f.det.RegisterComm(ci)
}

// OnCommClose implements accl.StatsSink.
func (f *Fleet) OnCommClose(comm int) {
	f.det.UnregisterComm(comm)
}

// OnCollective implements accl.StatsSink.
func (f *Fleet) OnCollective(ev accl.CollEvent) {
	a := f.agent(ev.Node)
	a.colls = append(a.colls, ev)
}

// OnMessage implements accl.StatsSink.
func (f *Fleet) OnMessage(ev accl.MsgEvent) {
	a := f.agent(ev.SrcNode)
	a.msgs = append(a.msgs, ev)
}

// OnWait implements accl.StatsSink.
func (f *Fleet) OnWait(ev accl.WaitEvent) {
	a := f.agent(ev.Waiter)
	a.waits = append(a.waits, ev)
}
