// Package faults is the fault-injection model of the C4 reproduction. It
// provides a composable, seed-deterministic fault model — link flap with
// duty cycle, NIC bandwidth degradation, spine/switch outage, straggler
// compute, silent packet drop, worker crash, NIC port loss — that injects
// timed events into any netsim/topo instance, plus the campaign families
// that sweep fault type × severity × topology scale × placement as
// generated trials, the trial runner, and the pooled formulas over trial
// results. It also holds the monitored-job rig (rig.go) every live C4 run
// is assembled with.
//
// Each campaign trial runs the same fault schedule twice: once with C4P
// dynamic steering responding to the faults, once with routes pinned (no
// fault response), and scores C4D's diagnosis precision/recall against the
// injected ground truth plus the goodput delta steering buys. The manifest
// runner (internal/campaign) executes and merges the trials, for the
// registry's campaign/* rows and for `c4 campaign` alike.
package faults

import (
	"fmt"
	"slices"

	"c4/internal/netsim"
	"c4/internal/rca"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/trace"
)

// Kind is one fault archetype of the model.
type Kind int

// The seven fault archetypes.
const (
	// LinkFlap periodically kills and revives both directions of one leaf
	// uplink cable. Severity is the duty cycle: the fraction of each
	// Period the link spends down.
	LinkFlap Kind = iota
	// NICDegrade renegotiates a node's NIC to a lower rate: every port
	// link of (Node, Rail) loses a Severity fraction of its capacity.
	NICDegrade
	// SpineOutage takes a whole spine switch out: every leaf-up and
	// spine-down link touching (Rail, Spine) goes down for the duration.
	SpineOutage
	// Straggler slows a node's compute by Severity seconds per iteration
	// (a thermally throttled or otherwise degraded GPU).
	Straggler
	// PacketDrop silently discards a Severity fraction of packets on one
	// leaf uplink. The link stays up at full capacity — no link-state
	// monitor sees it; only transport statistics can.
	PacketDrop
	// Crash kills the worker process on Node: it stops arriving at
	// collectives and the job hangs. It persists for the rest of the run;
	// only steering, replacing the node, ends it.
	Crash
	// PortDown takes both ports of (Node, Rail) down, a NIC losing carrier.
	// Like Crash it persists until steering replaces the node.
	PortDown
)

func (k Kind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case NICDegrade:
		return "nic-degrade"
	case SpineOutage:
		return "spine-outage"
	case Straggler:
		return "straggler"
	case PacketDrop:
		return "packet-drop"
	case Crash:
		return "crash"
	case PortDown:
		return "port-down"
	}
	return "unknown"
}

// persistent reports whether the fault lasts for the rest of the run: its
// Duration is ignored and nothing clears it.
func (k Kind) persistent() bool { return k == Crash || k == PortDown }

// nodeLocal reports whether the fault targets one node (Spec.Node).
func (k Kind) nodeLocal() bool { return k == NICDegrade || k == Straggler || k.persistent() }

// Spec is one parameterized fault instance. Target fields are used
// per-kind: Node for NICDegrade/Straggler/Crash/PortDown, (Plane, Group,
// Uplink) for LinkFlap/PacketDrop, Spine for SpineOutage; Rail applies to
// all fabric faults.
type Spec struct {
	Kind   Kind
	Node   int
	Rail   int
	Plane  int
	Group  int
	Uplink int
	Spine  int
	// Severity is the fault magnitude: duty cycle (LinkFlap), capacity
	// fraction lost (NICDegrade), loss fraction (PacketDrop), or extra
	// seconds of compute per iteration (Straggler). Ignored by
	// SpineOutage, Crash and PortDown.
	Severity float64
	Start    sim.Time
	// Duration is the active window; Crash and PortDown ignore it.
	Duration sim.Time
	// Period is the flap cycle length (LinkFlap only).
	Period sim.Time
}

// End reports when the fault clears: sim.MaxTime (never) for Crash and
// PortDown.
func (s Spec) End() sim.Time {
	if s.Kind.persistent() {
		return sim.MaxTime
	}
	return s.Start + s.Duration
}

func (s Spec) String() string {
	switch s.Kind {
	case LinkFlap:
		return fmt.Sprintf("%v r%d/p%d/g%d/up%d duty=%.2f period=%v [%v..%v]",
			s.Kind, s.Rail, s.Plane, s.Group, s.Uplink, s.Severity, s.Period, s.Start, s.End())
	case PacketDrop:
		return fmt.Sprintf("%v r%d/p%d/g%d/up%d loss=%.2f [%v..%v]",
			s.Kind, s.Rail, s.Plane, s.Group, s.Uplink, s.Severity, s.Start, s.End())
	case SpineOutage:
		return fmt.Sprintf("%v r%d/spine%d [%v..%v]", s.Kind, s.Rail, s.Spine, s.Start, s.End())
	case Straggler:
		return fmt.Sprintf("%v n%d +%.1fs/iter [%v..%v]", s.Kind, s.Node, s.Severity, s.Start, s.End())
	case Crash:
		return fmt.Sprintf("%v n%d [%v..]", s.Kind, s.Node, s.Start)
	case PortDown:
		return fmt.Sprintf("%v n%d r%d [%v..]", s.Kind, s.Node, s.Rail, s.Start)
	}
	return fmt.Sprintf("%v n%d sev=%.2f [%v..%v]", s.Kind, s.Node, s.Severity, s.Start, s.End())
}

// Validate reports a descriptive error for a spec that is inconsistent
// or names a component the fabric does not have.
func (s Spec) Validate(spec topo.Spec) error {
	if s.Start < 0 || (s.Duration <= 0 && !s.Kind.persistent()) {
		return fmt.Errorf("faults: %v has empty window [%v..%v]", s.Kind, s.Start, s.End())
	}
	switch s.Kind {
	case LinkFlap:
		if s.Severity <= 0 || s.Severity >= 1 {
			return fmt.Errorf("faults: flap duty %v outside (0,1)", s.Severity)
		}
		if s.Period <= 0 {
			return fmt.Errorf("faults: flap with no period")
		}
		fallthrough
	case PacketDrop:
		if s.Kind == PacketDrop && (s.Severity <= 0 || s.Severity >= 1) {
			return fmt.Errorf("faults: loss fraction %v outside (0,1)", s.Severity)
		}
		if s.Plane < 0 || s.Plane >= topo.Planes || s.Group < 0 || s.Group >= spec.Groups() {
			return fmt.Errorf("faults: no leaf (rail %d, plane %d, group %d)", s.Rail, s.Plane, s.Group)
		}
		if s.Uplink < 0 || s.Uplink >= spec.Spines {
			return fmt.Errorf("faults: uplink %d outside [0,%d)", s.Uplink, spec.Spines)
		}
	case NICDegrade:
		if s.Severity <= 0 || s.Severity >= 1 {
			return fmt.Errorf("faults: degrade fraction %v outside (0,1)", s.Severity)
		}
		if s.Node < 0 || s.Node >= spec.Nodes {
			return fmt.Errorf("faults: node %d outside fabric", s.Node)
		}
	case SpineOutage:
		if s.Spine < 0 || s.Spine >= spec.Spines {
			return fmt.Errorf("faults: spine %d outside [0,%d)", s.Spine, spec.Spines)
		}
	case Straggler:
		if s.Severity <= 0 || s.Severity > 10 {
			return fmt.Errorf("faults: straggler delay %vs outside (0,10]", s.Severity)
		}
		fallthrough
	case Crash, PortDown:
		if s.Node < 0 || s.Node >= spec.Nodes {
			return fmt.Errorf("faults: node %d outside fabric", s.Node)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(s.Kind))
	}
	if s.Rail < 0 || s.Rail >= spec.Rails {
		return fmt.Errorf("faults: rail %d outside fabric", s.Rail)
	}
	return nil
}

// Links resolves the fabric links the fault manipulates (none for
// Straggler and Crash).
func (s Spec) Links(t *topo.Topology) []*topo.Link {
	switch s.Kind {
	case LinkFlap:
		leaf := t.LeafAt(s.Rail, s.Plane, s.Group)
		return []*topo.Link{leaf.Ups[s.Uplink], leaf.Downs[s.Uplink]}
	case PacketDrop:
		leaf := t.LeafAt(s.Rail, s.Plane, s.Group)
		return []*topo.Link{leaf.Ups[s.Uplink]}
	case NICDegrade, PortDown:
		var out []*topo.Link
		for p := 0; p < topo.Planes; p++ {
			port := t.PortAt(s.Node, s.Rail, p)
			out = append(out, port.Up, port.Down)
		}
		return out
	case SpineOutage:
		return t.SpineLinks(s.Rail, s.Spine)
	}
	return nil
}

// telemetry is the hardware-monitor signal the fault's onset produces, or
// nil for silent faults (PacketDrop is invisible to every monitor).
func (s Spec) telemetry() *rca.Telemetry {
	switch s.Kind {
	case LinkFlap, SpineOutage:
		return &rca.Telemetry{Kind: rca.TelemetryLinkFlap, Node: -1}
	case NICDegrade:
		return &rca.Telemetry{Kind: rca.TelemetryNICDown, Node: s.Node}
	case Straggler:
		return &rca.Telemetry{Kind: rca.TelemetryThermal, Node: s.Node}
	case Crash:
		return &rca.Telemetry{Kind: rca.TelemetryXidError, Node: s.Node}
	case PortDown:
		return &rca.Telemetry{Kind: rca.TelemetryNICDown, Node: s.Node}
	}
	return nil
}

// Job is the part of a running training job the node-compute faults act
// on; *job.Job satisfies it.
type Job interface {
	// SetStraggler applies (or, with extra=0, clears) a per-iteration
	// compute delay on a node.
	SetStraggler(node int, extra sim.Time)
	// SetCrashed marks a node's worker crashed.
	SetCrashed(node int, crashed bool)
}

// Injector arms fault specs onto a live simulation. Overlapping faults
// compose: a link stays down until every outage holding it down has
// cleared (reference counting), and concurrent capacity degradations or
// loss fractions multiply.
type Injector struct {
	Eng  *sim.Engine
	Net  *netsim.Network
	Topo *topo.Topology
	// Job is the job Straggler and Crash specs act on; required only to
	// arm them.
	Job Job
	// OnTelemetry, when set, receives the hardware-monitor signal each
	// non-silent fault emits at onset (feeds the RCA service).
	OnTelemetry func(rca.Telemetry)

	armed    []Spec
	events   []*sim.Event // every scheduled event, for Drop
	baseGbps map[int]float64
	downRefs map[int]int
	degrades map[int][]float64
	losses   map[int][]float64
}

// NewInjector creates an injector for the environment.
func NewInjector(eng *sim.Engine, net *netsim.Network, t *topo.Topology) *Injector {
	return &Injector{
		Eng: eng, Net: net, Topo: t,
		baseGbps: map[int]float64{},
		downRefs: map[int]int{},
		degrades: map[int][]float64{},
		losses:   map[int][]float64{},
	}
}

// Drop cancels every fault event that has not fired yet: faults still
// pending never start, and active ones stay as they are.
func (in *Injector) Drop() {
	for _, ev := range in.events {
		ev.Cancel()
	}
}

// at schedules one of the injector's events.
func (in *Injector) at(t sim.Time, fn func()) {
	in.events = append(in.events, in.Eng.Schedule(t, fn))
}

// Arm validates the spec and schedules its timed events on the engine.
// Crash and PortDown schedule no clearing event, and their fault span
// stays open.
func (in *Injector) Arm(s Spec) error {
	if err := s.Validate(in.Topo.Spec); err != nil {
		return err
	}
	if (s.Kind == Straggler || s.Kind == Crash) && in.Job == nil {
		return fmt.Errorf("faults: %v armed without a job", s.Kind)
	}
	links := s.Links(in.Topo)
	end := s.End()
	// The fault-window span opens before the onset events scheduled below
	// (same instant, earlier sequence), so everything the fault causes can
	// nest under it; the "fault" mark is how c4d parents its detection
	// spans without a package dependency. With overlapping faults the mark
	// holds the most recently opened window — the best single attribution
	// guess a detector could make too.
	if tr := in.Net.Trace; tr.Enabled() {
		var fsp *trace.Span
		in.at(s.Start, func() {
			fsp = tr.Start(nil, "fault", s.Kind.String())
			if s.Kind.nodeLocal() {
				fsp.Annotate("node", fmt.Sprint(s.Node))
			} else {
				fsp.Annotate("spec", s.String())
			}
			tr.SetMark("fault", fsp)
		})
		if !s.Kind.persistent() {
			in.at(end, func() {
				fsp.FinishAt(in.Eng.Now())
				if tr.Mark("fault") == fsp {
					tr.SetMark("fault", nil)
				}
			})
		}
	}
	// Every archetype but the flap is one onset and one clear; fabric
	// faults apply theirs to each resolved link.
	each := func(op func(*topo.Link)) func() {
		return func() {
			for _, l := range links {
				op(l)
			}
		}
	}
	var on, off func()
	switch s.Kind {
	case LinkFlap:
		downSpan := sim.Time(float64(s.Period) * s.Severity)
		for at := s.Start; at < end; at += s.Period {
			in.at(at, each(in.down))
			in.at(min(at+downSpan, end), each(in.up))
		}
	case SpineOutage, PortDown:
		on, off = each(in.down), each(in.up)
	case NICDegrade:
		on = each(func(l *topo.Link) { in.degrade(l, s.Severity, true) })
		off = each(func(l *topo.Link) { in.degrade(l, s.Severity, false) })
	case PacketDrop:
		on = each(func(l *topo.Link) { in.loss(l, s.Severity, true) })
		off = each(func(l *topo.Link) { in.loss(l, s.Severity, false) })
	case Straggler:
		on = func() { in.Job.SetStraggler(s.Node, sim.FromSeconds(s.Severity)) }
		off = func() { in.Job.SetStraggler(s.Node, 0) }
	case Crash:
		on = func() { in.Job.SetCrashed(s.Node, true) }
	}
	if on != nil {
		in.at(s.Start, on)
		if !s.Kind.persistent() {
			in.at(end, off)
		}
	}
	if tel := s.telemetry(); tel != nil && in.OnTelemetry != nil {
		tel := *tel
		in.at(s.Start, func() {
			tel.Time = in.Eng.Now()
			in.OnTelemetry(tel)
		})
	}
	in.armed = append(in.armed, s)
	return nil
}

// Truth computes the injected ground truth against a job's node set: each
// armed spec plus the job nodes it can impact (empty when the fault cannot
// touch the job's traffic — e.g. a fabric fault under a single-leaf
// placement, which never crosses the spine layer).
func (in *Injector) Truth(jobNodes []int) []GroundTruth {
	out := make([]GroundTruth, 0, len(in.armed))
	for _, s := range in.armed {
		out = append(out, makeTruth(s, in.Topo, jobNodes))
	}
	return out
}

// down marks one outage holding the link down; the first one fails it.
func (in *Injector) down(l *topo.Link) {
	in.downRefs[l.ID]++
	if in.downRefs[l.ID] == 1 {
		in.Net.SetLinkUp(l, false)
	}
}

// up releases one outage; the link recovers when the last clears.
func (in *Injector) up(l *topo.Link) {
	if in.downRefs[l.ID] == 0 {
		return
	}
	in.downRefs[l.ID]--
	if in.downRefs[l.ID] == 0 {
		in.Net.SetLinkUp(l, true)
	}
}

// degrade adds (or removes) one capacity loss on the link; concurrent
// losses multiply.
func (in *Injector) degrade(l *topo.Link, frac float64, add bool) {
	if _, ok := in.baseGbps[l.ID]; !ok {
		in.baseGbps[l.ID] = l.Gbps
	}
	stack(in.degrades, l, frac, add)
	g := in.baseGbps[l.ID]
	for _, f := range in.degrades[l.ID] {
		g *= 1 - f
	}
	in.Net.SetLinkCapacity(l, g)
}

// loss adds (or removes) one packet-loss fraction on the link; concurrent
// losses compound.
func (in *Injector) loss(l *topo.Link, frac float64, add bool) {
	stack(in.losses, l, frac, add)
	keep := 1.0
	for _, f := range in.losses[l.ID] {
		keep *= 1 - f
	}
	in.Net.SetLinkLoss(l, 1-keep)
}

// stack pushes frac onto the link's fraction stack, or pops one equal to
// it.
func stack(m map[int][]float64, l *topo.Link, frac float64, push bool) {
	fr := m[l.ID]
	if push {
		m[l.ID] = append(fr, frac)
	} else if i := slices.Index(fr, frac); i >= 0 {
		m[l.ID] = append(fr[:i], fr[i+1:]...)
	}
}
