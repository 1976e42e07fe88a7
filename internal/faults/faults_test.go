package faults

import (
	"testing"

	"c4/internal/c4d"
	"c4/internal/netsim"
	"c4/internal/rca"
	"c4/internal/sim"
	"c4/internal/topo"
)

func testRig() (*sim.Engine, *netsim.Network, *topo.Topology) {
	eng := sim.NewEngine()
	t := topo.MustNew(topo.MultiJobTestbed(8))
	return eng, netsim.New(eng, t), t
}

func TestSpecValidate(t *testing.T) {
	_, _, top := testRig()
	bad := []Spec{
		{Kind: LinkFlap, Severity: 0.5, Start: 0, Duration: sim.Minute},           // no period
		{Kind: LinkFlap, Severity: 1.5, Period: sim.Second, Duration: sim.Minute}, // duty >= 1
		{Kind: LinkFlap, Severity: 0.5, Period: sim.Second, Duration: 0},          // empty window
		{Kind: LinkFlap, Severity: 0.5, Period: sim.Second, Duration: sim.Minute, Uplink: 99},
		{Kind: NICDegrade, Severity: 0.5, Duration: sim.Minute, Node: 999},
		{Kind: NICDegrade, Severity: 0, Duration: sim.Minute, Node: 1},
		{Kind: SpineOutage, Duration: sim.Minute, Spine: 8},
		{Kind: Straggler, Severity: 99, Duration: sim.Minute, Node: 1},
		{Kind: PacketDrop, Severity: 1.0, Duration: sim.Minute},
		{Kind: Kind(99), Severity: 0.5, Duration: sim.Minute},
		{Kind: Crash, Node: 16},
		{Kind: Crash, Node: -1},
		{Kind: Crash, Node: 1, Start: -sim.Second},
		{Kind: PortDown, Node: 999},
		{Kind: PortDown, Node: 1, Rail: 8},
	}
	for _, s := range bad {
		if err := s.Validate(top.Spec); err == nil {
			t.Errorf("spec %+v validated, want error", s)
		}
	}
	for _, good := range []Spec{
		{Kind: SpineOutage, Rail: 0, Spine: 3, Start: sim.Second, Duration: sim.Minute},
		// The persistent kinds have no window to validate.
		{Kind: Crash, Node: 15, Start: sim.Second},
		{Kind: PortDown, Node: 0, Rail: 7},
	} {
		if err := good.Validate(top.Spec); err != nil {
			t.Errorf("spec %v rejected: %v", good, err)
		}
	}
}

func TestFlapDutyCycle(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	leaf := top.LeafAt(0, 0, 0)
	up, down := leaf.Ups[2], leaf.Downs[2]
	err := inj.Arm(Spec{
		Kind: LinkFlap, Rail: 0, Plane: 0, Group: 0, Uplink: 2,
		Severity: 0.5, Period: 10 * sim.Second,
		Start: 10 * sim.Second, Duration: 30 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Down in [10,15) and [20,25) and [30,35); up otherwise.
	probes := map[sim.Time]bool{
		5 * sim.Second:  true,
		12 * sim.Second: false,
		17 * sim.Second: true,
		22 * sim.Second: false,
		27 * sim.Second: true,
		32 * sim.Second: false,
		42 * sim.Second: true,
	}
	for at, wantUp := range probes {
		at, wantUp := at, wantUp
		eng.Schedule(at, func() {
			if up.Up() != wantUp || down.Up() != wantUp {
				t.Errorf("at %v: link up=%v/%v, want %v", at, up.Up(), down.Up(), wantUp)
			}
		})
	}
	eng.RunUntil(sim.Minute)
}

// TestOverlappingOutagesOnOneLink proves the composability contract: a
// fault injected into an already-failed spine holds its links down until
// both outages clear, with no mid-overlap revival.
func TestOverlappingOutagesOnOneLink(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	for _, s := range []Spec{
		{Kind: SpineOutage, Rail: 0, Spine: 1, Start: 10 * sim.Second, Duration: 40 * sim.Second},
		{Kind: SpineOutage, Rail: 0, Spine: 1, Start: 30 * sim.Second, Duration: 40 * sim.Second},
	} {
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	link := top.LeafAt(0, 0, 0).Ups[1]
	probes := map[sim.Time]bool{
		5 * sim.Second:  true,
		20 * sim.Second: false,
		40 * sim.Second: false,
		// First outage ended at 50; the second still holds the spine down.
		55 * sim.Second: false,
		// Both cleared at 70.
		75 * sim.Second: true,
	}
	for at, wantUp := range probes {
		at, wantUp := at, wantUp
		eng.Schedule(at, func() {
			if link.Up() != wantUp {
				t.Errorf("at %v: link up=%v, want %v", at, link.Up(), wantUp)
			}
		})
	}
	eng.RunUntil(2 * sim.Minute)
	if !link.Up() {
		t.Fatal("link still down after both outages cleared")
	}
}

// TestFlapDuringOutage overlaps two different fault kinds on one link: the
// flap's up-edges inside the outage window must not revive the link.
func TestFlapDuringOutage(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	for _, s := range []Spec{
		{Kind: SpineOutage, Rail: 0, Spine: 2, Start: 10 * sim.Second, Duration: 60 * sim.Second},
		{Kind: LinkFlap, Rail: 0, Plane: 0, Group: 0, Uplink: 2,
			Severity: 0.5, Period: 10 * sim.Second, Start: 20 * sim.Second, Duration: 30 * sim.Second},
	} {
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	link := top.LeafAt(0, 0, 0).Ups[2]
	// The flap would be up at t=27 (down [20,25)), but the outage holds.
	for _, at := range []sim.Time{27 * sim.Second, 37 * sim.Second, 55 * sim.Second} {
		at := at
		eng.Schedule(at, func() {
			if link.Up() {
				t.Errorf("at %v: link revived inside outage window", at)
			}
		})
	}
	eng.Schedule(75*sim.Second, func() {
		if !link.Up() {
			t.Error("link down after outage and flap both ended")
		}
	})
	eng.RunUntil(2 * sim.Minute)
}

func TestDegradeComposition(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	for _, s := range []Spec{
		{Kind: NICDegrade, Rail: 0, Node: 3, Severity: 0.5, Start: 10 * sim.Second, Duration: 40 * sim.Second},
		{Kind: NICDegrade, Rail: 0, Node: 3, Severity: 0.2, Start: 30 * sim.Second, Duration: 40 * sim.Second},
	} {
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	port := top.PortAt(3, 0, 0)
	base := port.Up.Gbps
	check := func(at sim.Time, want float64) {
		eng.Schedule(at, func() {
			if got := port.Up.Gbps; !almost(got, want) {
				t.Errorf("at %v: capacity %.1f, want %.1f", at, got, want)
			}
		})
	}
	check(5*sim.Second, base)
	check(20*sim.Second, base*0.5)
	check(40*sim.Second, base*0.5*0.8)
	check(60*sim.Second, base*0.8)
	check(80*sim.Second, base)
	eng.RunUntil(2 * sim.Minute)
}

func TestLossComposition(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	for _, s := range []Spec{
		{Kind: PacketDrop, Rail: 0, Plane: 0, Group: 0, Uplink: 4, Severity: 0.5,
			Start: 10 * sim.Second, Duration: 30 * sim.Second},
		{Kind: PacketDrop, Rail: 0, Plane: 0, Group: 0, Uplink: 4, Severity: 0.4,
			Start: 20 * sim.Second, Duration: 30 * sim.Second},
	} {
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	link := top.LeafAt(0, 0, 0).Ups[4]
	check := func(at sim.Time, want float64) {
		eng.Schedule(at, func() {
			if got := net.LinkLoss(link); !almost(got, want) {
				t.Errorf("at %v: loss %.2f, want %.2f", at, got, want)
			}
		})
	}
	check(5*sim.Second, 0)
	check(15*sim.Second, 0.5)
	check(30*sim.Second, 1-0.5*0.6) // compounded: 0.7
	check(45*sim.Second, 0.4)
	check(55*sim.Second, 0)
	eng.RunUntil(2 * sim.Minute)
}

// fakeJob records what the node-compute faults do to a job.
type fakeJob struct {
	applied map[int]sim.Time
	crashed map[int]bool
}

func (j *fakeJob) SetStraggler(node int, extra sim.Time) {
	if j.applied == nil {
		j.applied = map[int]sim.Time{}
	}
	j.applied[node] = extra
}

func (j *fakeJob) SetCrashed(node int, crashed bool) {
	if j.crashed == nil {
		j.crashed = map[int]bool{}
	}
	j.crashed[node] = crashed
}

func TestStragglerNeedsHook(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	for _, k := range []Kind{Straggler, Crash} {
		if err := inj.Arm(Spec{Kind: k, Node: 1, Severity: 0.5, Duration: sim.Minute}); err == nil {
			t.Fatalf("%v armed without a job", k)
		}
	}
	job := &fakeJob{}
	inj.Job = job
	if err := inj.Arm(Spec{Kind: Straggler, Node: 1, Severity: 0.5,
		Start: sim.Second, Duration: sim.Minute}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * sim.Second)
	if job.applied[1] != 500*sim.Millisecond {
		t.Fatalf("straggler delay %v, want 500ms", job.applied[1])
	}
	eng.RunUntil(2 * sim.Minute)
	if job.applied[1] != 0 {
		t.Fatalf("straggler delay %v after window, want cleared", job.applied[1])
	}
}

// TestPersistentFaults: Crash and PortDown start at Start, emit their
// monitor signal, and nothing clears them for the rest of the run; their
// ground truth impacts exactly the victim.
func TestPersistentFaults(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	job := &fakeJob{}
	inj.Job = job
	var got []rca.Telemetry
	inj.OnTelemetry = func(tel rca.Telemetry) { got = append(got, tel) }
	for _, s := range []Spec{
		{Kind: Crash, Node: 3, Start: 10 * sim.Second},
		{Kind: PortDown, Node: 5, Rail: 0, Start: 20 * sim.Second},
	} {
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	var ports []*topo.Link
	for p := 0; p < topo.Planes; p++ {
		port := top.PortAt(5, 0, p)
		ports = append(ports, port.Up, port.Down)
	}
	portsUp := func() (up int) {
		for _, l := range ports {
			if l.Up() {
				up++
			}
		}
		return up
	}
	eng.RunUntil(10*sim.Second - 1)
	if job.crashed[3] || len(got) != 0 {
		t.Fatalf("crash fired before its start: crashed %v, signals %v", job.crashed, got)
	}
	eng.RunUntil(10 * sim.Second)
	if !job.crashed[3] || portsUp() != len(ports) {
		t.Fatalf("at 10s: crashed %v, %d of %d ports up", job.crashed, portsUp(), len(ports))
	}
	eng.RunUntil(20 * sim.Second)
	if portsUp() != 0 {
		t.Fatalf("port-down left %d ports up at its start", portsUp())
	}
	if n := eng.Pending(); n != 0 {
		t.Fatalf("%d events pending after both onsets, want none (no clearing event)", n)
	}
	eng.RunUntil(24 * sim.Hour)
	if !job.crashed[3] || portsUp() != 0 {
		t.Fatalf("persistent faults cleared: crashed %v, %d ports up", job.crashed, portsUp())
	}
	want := []rca.Telemetry{
		{Time: 10 * sim.Second, Kind: rca.TelemetryXidError, Node: 3},
		{Time: 20 * sim.Second, Kind: rca.TelemetryNICDown, Node: 5},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("signals %v, want %v", got, want)
	}
	for _, gt := range inj.Truth([]int{1, 3, 5, 7}) {
		if node := gt.Spec.Node; len(gt.Impact) != 1 || gt.Impact[0] != node {
			t.Errorf("%v: impact %v, want exactly [%d]", gt.Spec, gt.Impact, node)
		}
		if !gt.Matches(c4d.Event{Time: 23 * sim.Hour, Node: gt.Spec.Node}) {
			t.Errorf("%v: a late finding on the victim does not match", gt.Spec)
		}
	}
	for _, gt := range inj.Truth([]int{0, 1}) {
		if gt.Relevant() {
			t.Errorf("%v impacts %v, a job without its node", gt.Spec, gt.Impact)
		}
	}
}

// TestDropCancelsPendingFaults: a fault whose instant has not come never
// fires once dropped, while one already active stays.
func TestDropCancelsPendingFaults(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	job := &fakeJob{}
	inj.Job = job
	for _, s := range []Spec{
		{Kind: Straggler, Node: 1, Severity: 0.5, Start: sim.Second, Duration: sim.Hour},
		{Kind: Crash, Node: 2, Start: sim.Minute},
	} {
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(2 * sim.Second)
	inj.Drop()
	eng.RunUntil(2 * sim.Hour)
	if job.crashed[2] || job.applied[1] != 500*sim.Millisecond {
		t.Fatalf("after Drop: crashed %v, stragglers %v", job.crashed, job.applied)
	}
}

func TestTelemetrySignals(t *testing.T) {
	eng, net, top := testRig()
	inj := NewInjector(eng, net, top)
	inj.Job = &fakeJob{}
	var got []rca.Telemetry
	inj.OnTelemetry = func(tel rca.Telemetry) { got = append(got, tel) }
	specs := []Spec{
		{Kind: LinkFlap, Severity: 0.5, Period: 5 * sim.Second, Duration: 20 * sim.Second},
		{Kind: NICDegrade, Node: 2, Severity: 0.5, Duration: 20 * sim.Second},
		{Kind: Straggler, Node: 4, Severity: 0.5, Duration: 20 * sim.Second},
		// Silent: no monitor signal.
		{Kind: PacketDrop, Severity: 0.5, Duration: 20 * sim.Second},
	}
	for _, s := range specs {
		s.Start = sim.Second
		if err := inj.Arm(s); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Minute)
	want := []rca.TelemetryKind{rca.TelemetryLinkFlap, rca.TelemetryNICDown, rca.TelemetryThermal}
	if len(got) != len(want) {
		t.Fatalf("got %d telemetry signals, want %d (%v)", len(got), len(want), got)
	}
	for i, tel := range got {
		if tel.Kind != want[i] {
			t.Errorf("signal %d: %v, want %v", i, tel.Kind, want[i])
		}
	}
	if n := len(inj.Truth(nil)); n != len(specs) {
		t.Fatalf("Truth reports %d armed specs, want %d", n, len(specs))
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
