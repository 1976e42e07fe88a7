package telemetry

import (
	"bytes"
	"slices"
	"testing"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// plannedProvider mirrors the c4d test provider: dedicated same-plane
// spines per QP so healthy runs have zero collision noise.
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

// rig is a miniature training job watched by the streaming pipeline: 4
// nodes, iterative compute + allreduce, with injectable per-node compute
// delays, exactly the c4d test workload so the two detectors are
// comparable.
type rig struct {
	eng  *sim.Engine
	topo *topo.Topology
	net  *netsim.Network
	comm *accl.Communicator
	det  *OnlineDetector
	pipe *Pipeline

	nodes        []int
	computeExtra map[int]sim.Time
	iterations   int
	stopped      bool
}

func newRig(t *testing.T, dcfg DetectorConfig, pcfg PipelineConfig, extra ...Sink) *rig {
	t.Helper()
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	net := netsim.New(eng, tp, netsim.DefaultConfig())
	det := NewOnlineDetector(eng, dcfg)
	pipe := NewPipeline(eng, pcfg, append([]Sink{det}, extra...)...)
	nodes := []int{0, 2, 4, 6}
	comm, err := accl.NewCommunicator(accl.Config{
		Engine: eng, Net: net, Provider: &plannedProvider{topo: tp},
		Sink: pipe, Rand: sim.NewRand(5),
	}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		eng: eng, topo: tp, net: net, comm: comm, det: det, pipe: pipe,
		nodes: nodes, computeExtra: map[int]sim.Time{},
	}
}

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

func findDetection(dets []c4d.Detection, syn c4d.Syndrome, node int) *c4d.Detection {
	for i := range dets {
		for _, s := range dets[i].Suspects {
			if dets[i].Syndrome == syn && s == node {
				return &dets[i]
			}
		}
	}
	return nil
}

func TestOnlineHealthyRunIsQuiet(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{})
	r.run(2 * sim.Minute)
	if r.iterations < 100 {
		t.Fatalf("only %d iterations completed", r.iterations)
	}
	if dets := r.det.Detections(); len(dets) != 0 {
		t.Fatalf("healthy run produced detections: %v", dets)
	}
	if r.pipe.Dropped() != 0 {
		t.Fatalf("default ring dropped %d records", r.pipe.Dropped())
	}
	if r.pipe.Records() == 0 || r.det.Updates() == 0 {
		t.Fatal("pipeline carried no records")
	}
}

func TestOnlineDetectsCommSlowBeforeNextTick(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{})
	var faultAt sim.Time
	r.eng.Schedule(15*sim.Second, func() {
		faultAt = r.eng.Now()
		// Node 2's receive side degrades to 1/8 on both planes.
		for plane := 0; plane < topo.Planes; plane++ {
			r.net.SetLinkCapacity(r.topo.PortAt(2, 0, plane).Down, 25)
		}
	})
	r.run(2 * sim.Minute)
	det := findDetection(r.det.Detections(), c4d.CommSlow, 2)
	if det == nil {
		t.Fatalf("rx degrade not detected; detections: %v", r.det.Detections())
	}
	// The whole point: detection within a couple of slow transfers, far
	// inside the 5 s batch reporting interval.
	if latency := det.At - faultAt; latency > 5*sim.Second {
		t.Fatalf("streaming detection took %v, want sub-tick", latency)
	}
}

func TestOnlineDetectsStraggler(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{})
	var faultAt sim.Time
	r.eng.Schedule(15*sim.Second, func() {
		faultAt = r.eng.Now()
		r.computeExtra[6] = 150 * sim.Millisecond
	})
	r.run(2 * sim.Minute)
	det := findDetection(r.det.Detections(), c4d.NonCommSlow, 6)
	if det == nil {
		t.Fatalf("straggler not detected; detections: %v", r.det.Detections())
	}
	if det.At-faultAt > 10*sim.Second {
		t.Fatalf("straggler detection took %v", det.At-faultAt)
	}
	for _, d := range r.det.Detections() {
		if d.Syndrome == c4d.NonCommSlow && d.Suspects[0] != 6 {
			t.Fatalf("innocent node blamed as straggler: %v", d)
		}
	}
}

func TestOnlineDetectsCommHangAtExactTimeout(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{})
	var faultAt sim.Time
	r.eng.Schedule(20*sim.Second, func() {
		faultAt = r.eng.Now()
		for plane := 0; plane < topo.Planes; plane++ {
			port := r.topo.PortAt(4, 0, plane)
			r.net.SetLinkUp(port.Up, false)
			r.net.SetLinkUp(port.Down, false)
		}
	})
	r.run(3 * sim.Minute)
	det := findDetection(r.det.Detections(), c4d.CommHang, 4)
	if det == nil {
		t.Fatalf("NIC blackout not detected; detections: %v", r.det.Detections())
	}
	// The alarm fires exactly HangTimeout after the last transport
	// progress — never later than fault + timeout + one iteration.
	timeout := r.det.Config().HangTimeout
	if det.At < faultAt+timeout || det.At > faultAt+timeout+2*sim.Second {
		t.Fatalf("hang fired at %v (fault %v, timeout %v): not threshold-exact",
			det.At, faultAt, timeout)
	}
}

func TestOnlineDetectsNonCommHang(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{})
	var faultAt sim.Time
	r.eng.Schedule(20*sim.Second, func() {
		faultAt = r.eng.Now()
		r.comm.SetCrashed(4, true)
	})
	r.run(3 * sim.Minute)
	det := findDetection(r.det.Detections(), c4d.NonCommHang, 4)
	if det == nil {
		t.Fatalf("crashed node not detected; detections: %v", r.det.Detections())
	}
	if len(det.Suspects) != 1 || det.Suspects[0] != 4 {
		t.Fatalf("suspects = %v, want [4]", det.Suspects)
	}
	if det.At-faultAt > 40*sim.Second {
		t.Fatalf("non-comm hang detection took %v", det.At-faultAt)
	}
}

func TestCadenceDelaysDetection(t *testing.T) {
	// The same fault under a 5 s drain cadence is detected strictly later
	// than under streaming drains — the TTD-vs-overhead tradeoff the
	// cadence sweep measures.
	run := func(cadence sim.Time) (sim.Time, uint64) {
		r := newRig(t, DetectorConfig{}, PipelineConfig{DrainInterval: cadence})
		r.eng.Schedule(15*sim.Second, func() {
			for plane := 0; plane < topo.Planes; plane++ {
				r.net.SetLinkCapacity(r.topo.PortAt(2, 0, plane).Down, 25)
			}
		})
		r.run(90 * sim.Second)
		det := findDetection(r.det.Detections(), c4d.CommSlow, 2)
		if det == nil {
			t.Fatalf("cadence %v: fault missed", cadence)
		}
		return det.At - 15*sim.Second, r.pipe.Drains()
	}
	ttdStream, drainsStream := run(0)
	ttdBatch, drainsBatch := run(5 * sim.Second)
	if ttdStream >= ttdBatch {
		t.Fatalf("streaming TTD %v not better than 5s-cadence TTD %v", ttdStream, ttdBatch)
	}
	if drainsBatch >= drainsStream {
		t.Fatalf("coarse cadence ran more drains (%d) than streaming (%d)", drainsBatch, drainsStream)
	}
}

func TestTinyRingDropsAreCounted(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{BufCap: 2, DrainInterval: 10 * sim.Second})
	r.run(time30)
	if r.pipe.Dropped() == 0 {
		t.Fatal("2-slot rings under a 10s cadence must drop")
	}
}

const time30 = 30 * sim.Second

func TestReplayMatchesLiveDetections(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	r := newRig(t, DetectorConfig{}, PipelineConfig{}, w)
	r.eng.Schedule(15*sim.Second, func() {
		for plane := 0; plane < topo.Planes; plane++ {
			r.net.SetLinkCapacity(r.topo.PortAt(2, 0, plane).Down, 25)
		}
	})
	r.run(time30)
	r.pipe.Stop()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := Replay(records, DetectorConfig{}, 0)
	live, offline := r.det.Detections(), replayed.Detections()
	if len(live) == 0 {
		t.Fatal("live run detected nothing")
	}
	if len(live) != len(offline) {
		t.Fatalf("replay diverged: %d live vs %d offline detections\nlive: %v\noffline: %v",
			len(live), len(offline), live, offline)
	}
	for i := range live {
		if live[i].At != offline[i].At || live[i].Syndrome != offline[i].Syndrome {
			t.Fatalf("detection %d diverged: %v vs %v", i, live[i], offline[i])
		}
	}
}

func TestOnlineDetectorWorkIsPerRecord(t *testing.T) {
	r := newRig(t, DetectorConfig{}, PipelineConfig{})
	r.run(time30)
	// Per-record cost (state updates + loop iterations) must be a small
	// constant — the O(1) ingest property the scale sweep benchmarks
	// against the batch master's per-pass recompute.
	if r.det.Updates() < r.pipe.Records() {
		t.Fatalf("updates %d < records %d: records unaccounted", r.det.Updates(), r.pipe.Records())
	}
	perRecord := float64(r.det.Updates()) / float64(r.pipe.Records())
	if perRecord > 10 {
		t.Fatalf("%.2f update ops per record, want a small constant", perRecord)
	}
}

// A communicator without members cannot hang: replaying a stream that
// creates one and reports an arrival on it must neither panic at the hang
// deadline nor blame anyone.
func TestReplayMemberlessCommunicator(t *testing.T) {
	records := []Record{
		{Node: -1, Kind: KindCommCreate, Comm: 1},
		RecordOfColl(accl.CollEvent{Comm: 1, Seq: 1, Node: 5, Phase: accl.PhaseArrive, Time: sim.Microsecond}),
	}
	if dets := Replay(records, DetectorConfig{}, 2*time30).Detections(); len(dets) != 0 {
		t.Fatalf("memberless communicator produced %v", dets)
	}
}

// A finding that repeats inside the dedup interval is dropped before its
// Detection, suspects or detail are built, so a suppressed comm-slow
// (row, column or connection) or straggler repeat allocates nothing.
func TestSuppressedRepeatAllocatesNothing(t *testing.T) {
	// healthy gives nodes 0-3 three 100 Gbps transfers to each other, the
	// matrix's median; slow pairs then move at 10 Gbps, three times each.
	// Nodes 4-6 reach fewer than c4d.MinLineCells peers, so only the
	// slow side with enough peers, or the pair itself, is judged.
	healthy := func(m *DelayMatrix) {
		for rep := 0; rep < 3; rep++ {
			for src := 0; src < 4; src++ {
				for dst := 0; dst < 4; dst++ {
					if src != dst {
						m.Observe(src, dst, 100)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		name     string
		slow     [][2]int
		src, dst int // the transfer that re-checks the finding
		want     []int
	}{
		{"row", [][2]int{{0, 4}, {0, 5}, {0, 6}}, 0, 4, []int{0}},
		{"column", [][2]int{{4, 0}, {5, 0}, {6, 0}}, 4, 0, []int{0}},
		{"connection", [][2]int{{4, 5}}, 4, 5, []int{4, 5}},
	} {
		d := NewOnlineDetector(sim.NewEngine(), DetectorConfig{})
		w := &commWatch{comm: 7, matrix: NewDelayMatrix(matrixAlpha)}
		healthy(w.matrix)
		for _, p := range tc.slow {
			for rep := 0; rep < 3; rep++ {
				w.matrix.Observe(p[0], p[1], 10)
			}
		}
		d.checkCommSlow(w, tc.src, tc.dst)
		if dets := d.Detections(); len(dets) != 1 || dets[0].Syndrome != c4d.CommSlow || !slices.Equal(dets[0].Suspects, tc.want) {
			t.Fatalf("%s: first check fired %v, want one comm-slow on %v", tc.name, dets, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { d.checkCommSlow(w, tc.src, tc.dst) }); allocs != 0 {
			t.Errorf("%s: suppressed comm-slow repeat: %v allocs, want 0", tc.name, allocs)
		}
		if n := len(d.Detections()); n != 1 {
			t.Errorf("%s: %d detections after the repeats, want 1", tc.name, n)
		}
	}

	// Node 1's peers waited on it a second; on nodes 2 and 3, 10 ms.
	d := NewOnlineDetector(sim.NewEngine(), DetectorConfig{})
	w := &commWatch{comm: 7}
	for _, wait := range []struct {
		on  int
		dur sim.Time
	}{{2, 10 * sim.Millisecond}, {3, 10 * sim.Millisecond}, {1, sim.Second}} {
		d.observeWait(w, accl.WaitEvent{Comm: 7, On: wait.on, Dur: wait.dur})
	}
	if dets := d.Detections(); len(dets) != 1 || dets[0].Syndrome != c4d.NonCommSlow || !slices.Equal(dets[0].Suspects, []int{1}) {
		t.Fatalf("straggler: first check fired %v, want one non-comm-slow on [1]", dets)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.checkStraggler(w, 0) }); allocs != 0 {
		t.Errorf("suppressed straggler repeat: %v allocs, want 0", allocs)
	}
	if n := len(d.Detections()); n != 1 {
		t.Errorf("straggler: %d detections after the repeats, want 1", n)
	}
}
