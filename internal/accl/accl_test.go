package accl

import (
	"math"
	"testing"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// plannedProvider is a miniature traffic engineer for tests: same-plane
// paths, spines assigned round-robin per QP, so allocations never collide.
type plannedProvider struct {
	topo *topo.Topology
	next int
	// forceDstPlane, when >= 0, routes every QP to that receive plane —
	// used to manufacture the Fig 9 rx-imbalance pathology on demand.
	forceDstPlane int
	// adaptive is what Adaptive reports: whether communicators re-weight
	// this provider's QPs.
	adaptive bool
}

func newPlannedProvider(t *topo.Topology) *plannedProvider {
	return &plannedProvider{topo: t, forceDstPlane: -1}
}

func (p *plannedProvider) Connect(req ConnRequest) (*Assignment, error) {
	plane := req.QPIndex % topo.Planes
	dstPlane := plane
	if p.forceDstPlane >= 0 {
		dstPlane = p.forceDstPlane
	}
	if p.topo.Group(req.SrcNode) == p.topo.Group(req.DstNode) {
		path, err := p.topo.PathFor(req.SrcNode, req.DstNode, req.Rail, plane, -1, plane)
		if err != nil {
			return nil, err
		}
		return &Assignment{Path: path, Sport: uint16(p.next)}, nil
	}
	spine := p.next % p.topo.Spec.Spines
	p.next++
	path, err := p.topo.PathFor(req.SrcNode, req.DstNode, req.Rail, plane, spine, dstPlane)
	if err != nil {
		return nil, err
	}
	return &Assignment{Path: path, Sport: uint16(spine)}, nil
}

func (p *plannedProvider) Repair(req ConnRequest, old *Assignment) (*Assignment, error) {
	return p.Connect(req)
}

func (p *plannedProvider) Release(*Assignment) {}

func (p *plannedProvider) Adaptive() bool { return p.adaptive }

type harness struct {
	eng  *sim.Engine
	net  *netsim.Network
	topo *topo.Topology
	rec  *Recorder
}

func newHarness() *harness {
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	return &harness{
		eng:  eng,
		net:  netsim.New(eng, tp),
		topo: tp,
		rec:  &Recorder{},
	}
}

func (h *harness) comm(t *testing.T, cfg Config, nodes []int) *Communicator {
	t.Helper()
	cfg.Engine = h.eng
	cfg.Net = h.net
	if cfg.Provider == nil {
		cfg.Provider = newPlannedProvider(h.topo)
	}
	if cfg.Sink == nil {
		cfg.Sink = h.rec
	}
	c, err := NewCommunicator(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const MiB = 1 << 20

func TestAllReduceFluidReachesNVLinkCeiling(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6})
	var res Result
	c.AllReduce(256*MiB, nil, func(r Result) { res = r })
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("allreduce never completed")
	}
	// Planned paths: every edge runs at min(NVLink 362, bonded 400).
	if res.BusGbps < 330 || res.BusGbps > 365 {
		t.Fatalf("busbw = %.1f Gbps, want ≈362", res.BusGbps)
	}
}

func TestAllReduceRxCollisionHalvesBandwidth(t *testing.T) {
	h := newHarness()
	p := newPlannedProvider(h.topo)
	p.forceDstPlane = 0 // both QPs converge on the receiver's left port
	c := h.comm(t, Config{Provider: p}, []int{0, 2, 4, 6})
	var res Result
	c.AllReduce(256*MiB, nil, func(r Result) { res = r })
	h.eng.Run()
	// Receive port is 200 Gbps shared by two flows -> busbw ≈ 200.
	if res.BusGbps < 170 || res.BusGbps > 240 {
		t.Fatalf("busbw = %.1f Gbps, want <240 (rx imbalance)", res.BusGbps)
	}
}

func TestSingleNodeAllReduce(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{5})
	var res Result
	c.AllReduce(128*MiB, nil, func(r Result) { res = r })
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("single-node allreduce never completed")
	}
	if math.Abs(res.BusGbps-362) > 20 {
		t.Fatalf("intra-node busbw = %.1f, want ≈362", res.BusGbps)
	}
}

func TestStepwiseMatchesFluidApproximately(t *testing.T) {
	run := func(stepwise bool) Result {
		h := newHarness()
		c := h.comm(t, Config{Stepwise: stepwise}, []int{0, 2, 4, 6})
		var res Result
		c.AllReduce(512*MiB, nil, func(r Result) { res = r })
		h.eng.Run()
		return res
	}
	fluid, step := run(false), run(true)
	if fluid.End == 0 || step.End == 0 {
		t.Fatal("an allreduce never completed")
	}
	ratio := step.BusGbps / fluid.BusGbps
	if ratio < 0.7 || ratio > 1.1 {
		t.Fatalf("stepwise busbw %.1f vs fluid %.1f (ratio %.2f)", step.BusGbps, fluid.BusGbps, ratio)
	}
}

func TestAllGatherBusFactor(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6})
	var ag, ar Result
	c.AllGather(256*MiB, nil, func(r Result) { ag = r })
	h.eng.Run()
	h2 := newHarness()
	c2 := h2.comm(t, Config{}, []int{0, 2, 4, 6})
	c2.AllReduce(256*MiB, nil, func(r Result) { ar = r })
	h2.eng.Run()
	// Allgather moves half the per-edge bytes of allreduce, so takes about
	// half the time; both should report the same bus bandwidth.
	if math.Abs(ag.BusGbps-ar.BusGbps) > 30 {
		t.Fatalf("allgather busbw %.1f vs allreduce %.1f", ag.BusGbps, ar.BusGbps)
	}
	if ag.End-ag.Start > (ar.End-ar.Start)*3/4 {
		t.Fatalf("allgather (%v) should be ~half of allreduce (%v)", ag.End-ag.Start, ar.End-ar.Start)
	}
}

func TestLateArrivalDelaysEdgeAndEmitsWait(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6})
	arr := []sim.Time{0, 0, 500 * sim.Millisecond, 0}
	var res Result
	c.AllReduce(64*MiB, arr, func(r Result) { res = r })
	h.eng.Run()
	if res.End < 500*sim.Millisecond {
		t.Fatalf("op finished before straggler arrived: %v", res.End)
	}
	// Node 2 (index 2, the straggler) must be blamed by a wait event.
	found := false
	for _, w := range h.rec.Waits {
		if w.On == 4 && w.Waiter == 2 {
			found = true
			if w.Dur != 500*sim.Millisecond {
				t.Fatalf("wait dur = %v, want 500ms", w.Dur)
			}
		}
		if w.On != 4 {
			t.Fatalf("unexpected wait on node %d", w.On)
		}
	}
	if !found {
		t.Fatalf("no wait event blaming the straggler; got %+v", h.rec.Waits)
	}
}

func TestCrashedNodeHangsOperation(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6})
	c.SetCrashed(4, true)
	done := false
	op := c.AllReduce(64*MiB, nil, func(Result) { done = true })
	h.eng.RunUntil(10 * sim.Second)
	if done || op.Done() {
		t.Fatal("op completed despite crashed member")
	}
	// Survivors' kernel launches are still observed (the C4D signal).
	arrivals := map[int]bool{}
	for _, ev := range h.rec.Collectives {
		if ev.Phase == PhaseArrive {
			arrivals[ev.Node] = true
		}
	}
	if arrivals[4] {
		t.Fatal("crashed node reported a kernel launch")
	}
	for _, n := range []int{0, 2, 6} {
		if !arrivals[n] {
			t.Fatalf("survivor %d missing arrival record", n)
		}
	}
}

func TestMessageEventsConserveBytes(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6})
	size := float64(64 * MiB)
	c.AllReduce(size, nil, nil)
	h.eng.Run()
	var total float64
	for _, m := range h.rec.Messages {
		total += m.Bytes
	}
	n := c.TotalGPUs()
	want := size * 2 * float64(n-1) / float64(n) * 4 // 4 ring edges
	if math.Abs(total-want)/want > 1e-6 {
		t.Fatalf("messages carried %.0f bytes, want %.0f", total, want)
	}
}

func TestBroadcastTree(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6, 8})
	var res Result
	c.Broadcast(128*MiB, nil, func(r Result) { res = r })
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("broadcast never completed")
	}
	if res.Algo != "tree" || res.Op != OpBroadcast {
		t.Fatalf("result metadata wrong: %+v", res)
	}
	// Two tree levels of full-size transfers at ~362 Gbps, plus latency.
	minT := sim.FromSeconds(2 * 128 * MiB * 8 / (400e9))
	if res.End-res.Start < minT {
		t.Fatalf("broadcast too fast: %v < %v", res.End-res.Start, minT)
	}
}

func TestAllReduceTreeCompletes(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2, 4, 6})
	var res Result
	c.AllReduceTree(64*MiB, nil, func(r Result) { res = r })
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("tree allreduce never completed")
	}
	if res.Algo != "tree" {
		t.Fatalf("algo = %q", res.Algo)
	}
	// Ring is bandwidth-optimal at large sizes: tree busbw must not exceed
	// ring's ceiling.
	if res.BusGbps > 365 {
		t.Fatalf("tree busbw %.1f exceeds fabric ceiling", res.BusGbps)
	}
}

func TestAdaptiveWeightsShiftWithinPlane(t *testing.T) {
	h := newHarness()
	// 4 QPs per connection: two per plane, so load balance has room to
	// move within a plane.
	prov := newPlannedProvider(h.topo)
	prov.adaptive = true
	c := h.comm(t, Config{Provider: prov, QPsPerConn: 4}, []int{0, 2})
	// Warm up once so the connection (and its spine choices) exist.
	c.AllReduce(16*MiB, nil, nil)
	h.eng.RunUntil(sim.Second)
	conn, err := c.getConn(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Congest the first plane-0 QP's spine with a hog sharing its uplink
	// (source node 1 sits under the same leaf as node 0).
	var victim, sibling *QP
	for _, qp := range conn.QPs {
		if qp.Path().SrcPort.Plane != 0 {
			continue
		}
		if victim == nil {
			victim = qp
		} else {
			sibling = qp
		}
	}
	if victim == nil || sibling == nil {
		t.Fatal("expected two plane-0 QPs")
	}
	// Three hogs drop the victim's uplink share to ~50 Gbps — well below
	// what the NVLink injection cap leaves the sibling (~100 Gbps), so the
	// congestion is visible through the intra-node bottleneck.
	// Hogs share the victim's leaf uplink (same source leaf, same spine)
	// but terminate at node 3, so the victim's destination port — which
	// the sibling also crosses — stays out of the blast radius.
	hog, err := h.topo.PathFor(1, 3, 0, 0, victim.Path().Spine.Index, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.net.StartFlow(hog, 1e18, "hog", nil)
	}
	// Serialized iterations (BSP-style) so per-op throughput measurements
	// are clean.
	remaining := 12
	var next func(Result)
	next = func(Result) {
		if remaining == 0 {
			return
		}
		remaining--
		c.AllReduce(16*MiB, nil, next)
	}
	next(Result{})
	h.eng.RunUntil(60 * sim.Second)
	if victim.Weight() >= sibling.Weight() {
		t.Fatalf("weights did not shift off the congested spine: victim=%.3f sibling=%.3f",
			victim.Weight(), sibling.Weight())
	}
	// The dual-port invariant: plane sums stay balanced (weights only
	// renormalize within a plane).
	w0, w1 := 0.0, 0.0
	for _, qp := range conn.QPs {
		if qp.Path().SrcPort.Plane == 0 {
			w0 += qp.Weight()
		} else {
			w1 += qp.Weight()
		}
	}
	if math.Abs(w0-1) > 1e-9 || math.Abs(w1-1) > 1e-9 {
		t.Fatalf("per-plane weight sums = %.3f/%.3f, want 1/1", w0, w1)
	}
}

func TestCommunicatorValidation(t *testing.T) {
	h := newHarness()
	base := Config{Engine: h.eng, Net: h.net, Provider: newPlannedProvider(h.topo)}
	if _, err := NewCommunicator(base, nil); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := NewCommunicator(base, []int{1, 1}); err == nil {
		t.Fatal("duplicate nodes accepted")
	}
	if _, err := NewCommunicator(Config{}, []int{0}); err == nil {
		t.Fatal("missing dependencies accepted")
	}
}

func TestCloseReleasesConnections(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2})
	c.AllReduce(MiB, nil, nil)
	h.eng.Run()
	if len(c.conns) == 0 {
		t.Fatal("expected live connections before Close")
	}
	c.Close()
	if len(c.conns) != 0 {
		t.Fatal("Close left connections behind")
	}
}

func TestECMPProviderProducesValidPaths(t *testing.T) {
	h := newHarness()
	prov := NewECMPProvider(h.topo, sim.NewRand(7))
	c := h.comm(t, Config{Provider: prov}, []int{0, 2, 4, 6})
	var res Result
	c.AllReduce(64*MiB, nil, func(r Result) { res = r })
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("ECMP allreduce never completed")
	}
	if res.BusGbps <= 0 || res.BusGbps > 365 {
		t.Fatalf("busbw = %.1f out of range", res.BusGbps)
	}
}

func TestRepairAfterLinkFailureCompletesTransfer(t *testing.T) {
	h := newHarness()
	c := h.comm(t, Config{}, []int{0, 2})
	var res Result
	c.AllReduce(256*MiB, nil, func(r Result) { res = r })
	// Fail one spine uplink used by the transfer shortly after start.
	h.eng.After(sim.Millisecond, func() {
		leaf := h.topo.PortAt(0, 0, 0).Leaf
		h.net.SetLinkUp(leaf.Ups[0], false)
	})
	h.eng.Run()
	if res.End == 0 {
		t.Fatal("transfer never recovered from link failure")
	}
}

func TestMultiRailStripingScalesThroughput(t *testing.T) {
	// Rails are independent subnetworks. On the paper testbed the shared
	// 362 Gbps NVLink injection ceiling binds before even one bonded NIC,
	// so striping cannot speed completion there; raise the ceiling and the
	// 4-rail transfer must approach 4x one rail.
	run := func(rails []int) sim.Time {
		eng := sim.NewEngine()
		spec := topo.PaperTestbed()
		spec.NVLinkGbps = 1e4 // NIC-bound regime
		tp := topo.MustNew(spec)
		net := netsim.New(eng, tp)
		c, err := NewCommunicator(Config{
			Engine: eng, Net: net, Provider: newPlannedProvider(tp),
			Rails: rails, Rand: sim.NewRand(1),
		}, []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		c.AllReduce(512*MiB, nil, func(r Result) { res = r })
		eng.Run()
		if res.End == 0 {
			t.Fatalf("allreduce on rails %v never completed", rails)
		}
		return res.End - res.Start
	}
	one := run([]int{0})
	four := run([]int{0, 1, 2, 3})
	speedup := float64(one) / float64(four)
	if speedup < 3.5 || speedup > 4.5 {
		t.Fatalf("4-rail speedup = %.2fx (1 rail %v, 4 rails %v), want ≈4x", speedup, one, four)
	}
	// Striping must also be even across rails.
	h := newHarness()
	c := h.comm(t, Config{Rails: []int{0, 1, 2, 3}}, []int{0, 2})
	c.AllReduce(512*MiB, nil, nil)
	h.eng.Run()
	perRail := map[int]float64{}
	for _, m := range h.rec.Messages {
		perRail[m.Rail] += m.Bytes
	}
	if len(perRail) != 4 {
		t.Fatalf("rails used = %d, want 4", len(perRail))
	}
	var first float64
	for _, rail := range []int{0, 1, 2, 3} {
		if first == 0 {
			first = perRail[rail]
		}
		if math.Abs(perRail[rail]-first)/first > 1e-9 {
			t.Fatalf("rail striping uneven: %v", perRail)
		}
	}
}

func TestFanoutDeliversToEverySink(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	sink := Fanout(a, nil, b)
	sink.OnCommCreate(CommInfo{Comm: 1, Nodes: []int{0, 1}})
	sink.OnCollective(CollEvent{Comm: 1, Node: 0})
	sink.OnMessage(MsgEvent{Comm: 1, SrcNode: 0, DstNode: 1, Bytes: 8})
	sink.OnWait(WaitEvent{Comm: 1, Waiter: 1, On: 0})
	sink.OnCommClose(1)
	for i, rec := range []*Recorder{a, b} {
		if len(rec.Comms) != 1 || len(rec.Collectives) != 1 ||
			len(rec.Messages) != 1 || len(rec.Waits) != 1 || len(rec.Closed) != 1 {
			t.Fatalf("sink %d missed records: %+v", i, rec)
		}
	}
	// A single non-nil sink is returned unwrapped (no fan-out overhead).
	if got := Fanout(nil, a); got != StatsSink(a) {
		t.Fatalf("Fanout(nil, a) = %T, want the sink itself", got)
	}
}

func TestFanoutDrivesTwoLiveSinks(t *testing.T) {
	// End to end: one communicator, two recorders, byte-identical streams.
	h := newHarness()
	other := &Recorder{}
	c := h.comm(t, Config{Sink: Fanout(h.rec, other)}, []int{0, 2})
	c.AllReduce(64*MiB, nil, nil)
	h.eng.Run()
	if len(h.rec.Messages) == 0 || len(h.rec.Messages) != len(other.Messages) {
		t.Fatalf("fanout diverged: %d vs %d messages", len(h.rec.Messages), len(other.Messages))
	}
	for i := range h.rec.Messages {
		if h.rec.Messages[i] != other.Messages[i] {
			t.Fatalf("message %d diverged: %+v vs %+v", i, h.rec.Messages[i], other.Messages[i])
		}
	}
}
