package c4d

import (
	"testing"

	"c4/internal/accl"
	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// plannedProvider gives each QP a dedicated same-plane spine so healthy
// runs have zero collision noise (tests then inject specific anomalies).
type plannedProvider struct {
	topo *topo.Topology
	next int
}

func (p *plannedProvider) Connect(req accl.ConnRequest) (*accl.Assignment, error) {
	plane := req.QPIndex % topo.Planes
	if p.topo.Group(req.SrcNode) == p.topo.Group(req.DstNode) {
		path, err := p.topo.PathFor(req.SrcNode, req.DstNode, req.Rail, plane, -1, plane)
		if err != nil {
			return nil, err
		}
		return &accl.Assignment{Path: path}, nil
	}
	spine := p.next % p.topo.Spec.Spines
	p.next++
	path, err := p.topo.PathFor(req.SrcNode, req.DstNode, req.Rail, plane, spine, plane)
	if err != nil {
		return nil, err
	}
	return &accl.Assignment{Path: path, Sport: uint16(spine)}, nil
}

func (p *plannedProvider) Repair(req accl.ConnRequest, old *accl.Assignment) (*accl.Assignment, error) {
	return p.Connect(req)
}

func (p *plannedProvider) Release(*accl.Assignment) {}

func (p *plannedProvider) Adaptive() bool { return false }

// rig is a miniature training job: 4 nodes, iterative compute+allreduce,
// with per-node compute delays and a C4D master watching, beside any extra
// sinks newRig is given.
type rig struct {
	eng    *sim.Engine
	topo   *topo.Topology
	net    *netsim.Network
	comm   *accl.Communicator
	master *Master
	nodes  []int

	computeExtra map[int]sim.Time // per-node straggler injection
	iterations   int
	stopped      bool
}

func newRig(t *testing.T, extra ...accl.StatsSink) *rig {
	t.Helper()
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	net := netsim.New(eng, tp)
	master := NewMaster(eng, Config{})
	nodes := []int{0, 2, 4, 6}
	comm, err := accl.NewCommunicator(accl.Config{
		Engine: eng, Net: net, Provider: &plannedProvider{topo: tp},
		Sink: accl.Fanout(append([]accl.StatsSink{master}, extra...)...), Rand: sim.NewRand(5),
	}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		eng: eng, topo: tp, net: net, comm: comm,
		master: master, nodes: nodes,
		computeExtra: map[int]sim.Time{},
	}
}

// run starts the BSP iteration loop: 100 ms compute (plus per-node extra),
// then a 64 MiB allreduce, then the next iteration.
func (r *rig) run(until sim.Time) {
	const compute = 100 * sim.Millisecond
	const size = 64 << 20
	var iterate func()
	iterate = func() {
		if r.stopped {
			return
		}
		now := r.eng.Now()
		arr := make([]sim.Time, len(r.nodes))
		for i, n := range r.nodes {
			arr[i] = now + compute + r.computeExtra[n]
		}
		r.comm.AllReduce(size, arr, func(accl.Result) {
			r.iterations++
			iterate()
		})
	}
	iterate()
	r.eng.RunUntil(until)
}

func findEvent(events []Event, syn Syndrome, node int) *Event {
	for i := range events {
		if events[i].Syndrome == syn && events[i].Node == node {
			return &events[i]
		}
	}
	return nil
}

func TestHealthyRunProducesNoEvents(t *testing.T) {
	r := newRig(t)
	r.run(2 * sim.Minute)
	if r.iterations < 100 {
		t.Fatalf("only %d iterations completed", r.iterations)
	}
	if evs := r.master.Events(); len(evs) != 0 {
		t.Fatalf("healthy run produced events: %v", evs)
	}
}

func TestDetectNonCommHang(t *testing.T) {
	r := newRig(t)
	var faultAt sim.Time
	r.eng.Schedule(20*sim.Second, func() {
		faultAt = r.eng.Now()
		r.comm.SetCrashed(4, true)
	})
	r.run(3 * sim.Minute)
	ev := findEvent(r.master.Events(), NonCommHang, 4)
	if ev == nil {
		t.Fatalf("crashed node not detected; events: %v", r.master.Events())
	}
	latency := ev.Time - faultAt
	if latency > 90*sim.Second {
		t.Fatalf("detection latency %v, want tens of seconds", latency)
	}
	// No other node may be blamed for a hang.
	for _, e := range r.master.Events() {
		if (e.Syndrome == NonCommHang || e.Syndrome == CommHang) && e.Node != 4 {
			t.Fatalf("innocent node blamed: %v", e)
		}
	}
}

func TestDetectCommHangOnNICBlackout(t *testing.T) {
	r := newRig(t)
	var faultAt sim.Time
	r.eng.Schedule(20*sim.Second, func() {
		faultAt = r.eng.Now()
		// Node 4 loses both physical ports on rail 0: flows stall, the
		// operation hangs mid-flight.
		for plane := 0; plane < topo.Planes; plane++ {
			port := r.topo.PortAt(4, 0, plane)
			r.net.SetLinkUp(port.Up, false)
			r.net.SetLinkUp(port.Down, false)
		}
	})
	r.run(3 * sim.Minute)
	ev := findEvent(r.master.Events(), CommHang, 4)
	if ev == nil {
		t.Fatalf("NIC blackout not localized; events: %v", r.master.Events())
	}
	if ev.Time-faultAt > 2*sim.Minute {
		t.Fatalf("detection latency %v too high", ev.Time-faultAt)
	}
}

func TestDetectNonCommSlowStraggler(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(15*sim.Second, func() {
		r.computeExtra[6] = 150 * sim.Millisecond // node 6 becomes 2.5x slower
	})
	r.run(2 * sim.Minute)
	ev := findEvent(r.master.Events(), NonCommSlow, 6)
	if ev == nil {
		t.Fatalf("straggler not detected; events: %v", r.master.Events())
	}
	for _, e := range r.master.Events() {
		if e.Syndrome == NonCommSlow && e.Node != 6 {
			t.Fatalf("innocent node blamed as straggler: %v", e)
		}
	}
}

func TestDetectCommSlowRxDegrade(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(15*sim.Second, func() {
		// Node 2's receive side degrades to 1/8 on both planes.
		for plane := 0; plane < topo.Planes; plane++ {
			r.net.SetLinkCapacity(r.topo.PortAt(2, 0, plane).Down, 25)
		}
	})
	r.run(2 * sim.Minute)
	// Ring traffic has exactly one connection into node 2 (0->2), so the
	// honest localization is that connection; a row/column verdict needs a
	// fuller matrix (see TestMatrixColumnSlow).
	var hit *Event
	for _, e := range r.master.Events() {
		if e.Syndrome == CommSlow && (e.Node == 2 || e.Peer == 2) {
			e := e
			hit = &e
		}
	}
	if hit == nil {
		t.Fatalf("rx degrade not detected; events: %v", r.master.Events())
	}
	if hit.Scope == ScopeConnection && !(hit.Node == 0 && hit.Peer == 2) {
		t.Fatalf("wrong connection blamed: %v", hit)
	}
	for _, e := range r.master.Events() {
		if e.Syndrome == CommSlow && e.Node != 0 && e.Node != 2 && e.Peer != 2 {
			t.Fatalf("unrelated component blamed: %v", e)
		}
	}
}

func TestDetectCommSlowTxDegrade(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(15*sim.Second, func() {
		for plane := 0; plane < topo.Planes; plane++ {
			r.net.SetLinkCapacity(r.topo.PortAt(6, 0, plane).Up, 25)
		}
	})
	r.run(2 * sim.Minute)
	// The only connection out of node 6 is 6->0: a connection-scope
	// finding with source 6 is the correct localization.
	var hit *Event
	for _, e := range r.master.Events() {
		if e.Syndrome == CommSlow && e.Node == 6 {
			e := e
			hit = &e
		}
	}
	if hit == nil {
		t.Fatalf("tx degrade not detected; events: %v", r.master.Events())
	}
	if hit.Scope == ScopeConnection && hit.Peer != 0 {
		t.Fatalf("wrong connection blamed: %v", hit)
	}
}

// A crashed member stays hung for the whole run: the dedup interval lets
// the finding through once per DedupInterval, and no more often.
func TestEventDeduplication(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(15*sim.Second, func() { r.comm.SetCrashed(4, true) })
	r.run(5 * sim.Minute)
	var at []sim.Time
	for _, e := range r.master.Events() {
		if e.Syndrome == NonCommHang && e.Node == 4 {
			at = append(at, e.Time)
		}
	}
	if len(at) != 5 {
		t.Fatalf("hang reported at %v, want 5 times in 5 minutes", at)
	}
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] < DedupInterval {
			t.Fatalf("hang reported at %v: %v and %v are closer than %v", at, at[i-1], at[i], DedupInterval)
		}
	}
}

func TestMasterConfigDefaults(t *testing.T) {
	m := NewMaster(sim.NewEngine(), Config{})
	if cfg := m.Config(); cfg.HangTimeout <= 0 || cfg.Kappa <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestMasterSkipsEmptyPasses is the regression test for the batch hot-path
// fix: a master that received no record and never saw any evidence must
// not run a full analysis pass every tick.
func TestMasterSkipsEmptyPasses(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMaster(eng, Config{})
	// Register a communicator but never run traffic: the idle head of a
	// deployment (job not started yet).
	m.OnCommCreate(accl.CommInfo{Comm: 1, Nodes: []int{0, 1}})
	eng.RunFor(60 * sim.Second)
	if m.AnalyzePasses() != 0 {
		t.Fatalf("idle master ran %d passes, want 0", m.AnalyzePasses())
	}
	if m.SkippedPasses() != 12 {
		t.Fatalf("%d passes skipped in 60 s, want 12", m.SkippedPasses())
	}
	// A record of a communicator the master does not know still makes the
	// next tick run a pass.
	m.OnWait(accl.WaitEvent{Comm: 9, Waiter: 0, On: 1, Dur: sim.Second})
	eng.RunFor(10 * sim.Second)
	if m.AnalyzePasses() != 1 || m.SkippedPasses() != 13 {
		t.Fatalf("after a stray record: %d passes, %d skipped, want 1 and 13", m.AnalyzePasses(), m.SkippedPasses())
	}
	m.Stop()
}

// TestMasterKeepsAnalyzingThroughSilence proves the skip cannot mask a
// hang: once a communicator has been seen, silent ticks still analyze, so
// the hang-timeout detectors fire exactly as before the optimization.
func TestMasterKeepsAnalyzingThroughSilence(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(20*sim.Second, func() { r.comm.SetCrashed(4, true) })
	r.run(3 * sim.Minute)
	if ev := findEvent(r.master.Events(), NonCommHang, 4); ev == nil {
		t.Fatalf("hang not detected with empty-pass skip in place; events: %v", r.master.Events())
	}
	if r.master.AnalyzePasses() == 0 || r.master.SkippedPasses() != 0 {
		t.Fatalf("%d passes ran and %d were skipped, want every tick to run one",
			r.master.AnalyzePasses(), r.master.SkippedPasses())
	}
}

// TestMasterSkipResumesAfterClose covers the idle tail: closing the last
// communicator drops its state, so post-job ticks skip again.
func TestMasterSkipResumesAfterClose(t *testing.T) {
	r := newRig(t)
	r.run(30 * sim.Second)
	if r.master.AnalyzePasses() == 0 {
		t.Fatal("active run analyzed nothing")
	}
	r.stopped = true
	r.comm.Close()
	// The next tick still runs a pass over the records that arrived
	// before the close; let it pass, then the deployment must go quiet.
	r.eng.RunFor(6 * sim.Second)
	passes := r.master.AnalyzePasses()
	before := r.master.SkippedPasses()
	r.eng.RunFor(60 * sim.Second)
	if r.master.AnalyzePasses() != passes {
		t.Fatalf("closed deployment still analyzing: %d -> %d passes", passes, r.master.AnalyzePasses())
	}
	if r.master.SkippedPasses() <= before {
		t.Fatal("post-close ticks not skipped")
	}
}

func TestEventDetectionConversion(t *testing.T) {
	conn := Event{Time: 3 * sim.Second, Comm: 7, Syndrome: CommSlow,
		Scope: ScopeConnection, Node: 1, Peer: 4, Severity: 2.5}
	d := conn.Detection()
	if d.At != conn.Time || d.Comm != 7 || len(d.Suspects) != 2 ||
		d.Suspects[0] != 1 || d.Suspects[1] != 4 {
		t.Fatalf("connection conversion = %+v", d)
	}
	node := Event{Syndrome: NonCommHang, Scope: ScopeNode, Node: 9, Peer: -1}
	if d := node.Detection(); len(d.Suspects) != 1 || d.Suspects[0] != 9 {
		t.Fatalf("node conversion = %+v", d)
	}
	if got := Detections([]Event{conn, node}); len(got) != 2 {
		t.Fatalf("Detections = %v", got)
	}
	if (Detection{Syndrome: CommHang, Suspects: []int{3}}).String() == "" {
		t.Fatal("empty Detection rendering")
	}
}

func TestSubscribeDeliversEvents(t *testing.T) {
	r := newRig(t)
	var got []Event
	r.master.Subscribe(func(e Event) { got = append(got, e) })
	r.eng.Schedule(10*sim.Second, func() { r.comm.SetCrashed(2, true) })
	r.run(2 * sim.Minute)
	if len(got) == 0 {
		t.Fatal("subscriber received nothing")
	}
	if got[0].Node != 2 {
		t.Fatalf("blamed node %d, want 2", got[0].Node)
	}
}
