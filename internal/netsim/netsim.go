// Package netsim is a deterministic flow-level (fluid) network simulator.
//
// Flows traverse a topo.Path and share each unidirectional link max-min
// fairly, the standard fidelity level for traffic-engineering studies: N
// greedy flows crossing one 200 Gbps link each progress at 200/N Gbps, which
// is exactly the traffic-collision behaviour C4 (HPCA'25) sets out to avoid.
//
// The simulator is event-driven: whenever the flow set or link state
// changes, rates are recomputed once (batched per virtual instant) and each
// flow's completion event is rescheduled analytically. Per-link carried-bit
// counters feed the switch-port bandwidth figures, and a congestion-
// notification (CNP) process on saturated links feeds Fig 11. Read paths
// (Utilization, CarriedBits, CNPCount) flush any pending same-instant
// recompute first, so observers inside event callbacks never see stale
// rates.
//
// The recompute is the flow-class kernel: collective traffic is a limited
// number of long-lived flows on identical paths, so flows with identical
// link chains collapse into one fluid class with a member count (a
// one-member class is a flow), and the touched links partition into
// independent link components, each filling in its own rounds. The kernel
// is event-local: components persist between recomputes, and a recompute
// re-fills only the components its changes reach — a class whose
// membership changed, or every component after a link's capacity, loss or
// health changed — on a worker pool when Config.SettleWorkers asks for
// one. Every other component keeps its rates, CNP rates, goodput and link
// utilization. Neither the locality nor the parallel settle changes a
// bit: the result is what re-filling every component from scratch gives —
// same rates, same completion instants, same event counts. The package's
// tests hold the kernel to the per-flow reference kernel, kept as a test
// oracle, and to the max-min certificate (CheckMaxMin); the accl and
// harness tests pin whole workloads to goldens recorded from the oracle.
//
// The per-flow path allocates nothing once warm. StartFlow, the one way
// to start a flow, takes a FlowHandler, which the caller implements on
// the object it already keeps per flow (accl's QP share); the flow is its
// own admission handler; the network owns its recompute and completion
// events and re-arms them in place; and a completed flow goes, with its
// admission Event, to the network's free list for a later StartFlow (see
// StartFlow for the ownership rule). settle, which advances the network
// to every completion and mutation, walks the classes: its per-member
// work is the remaining-bits update only, and it charges carried bits and
// CNPs once per class. Flow stays at 128 bytes because that update still
// reads every moving member's first cache line (see Flow).
package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/trace"
)

// Gbps converts gigabits per second to bits per second.
const Gbps = 1e9

const rateEpsilon = 1e-6

// Config tunes simulator-wide constants.
type Config struct {
	// BaseLatency is the fixed per-flow setup+propagation delay applied
	// before a flow starts moving data.
	BaseLatency sim.Time
	// CNPPerSecond is the congestion-notification rate a sender receives
	// for each fully-contended link on its path, scaled by the contention
	// factor (flows-1)/flows. At 2:1 oversubscription a flow crosses two
	// saturated stages (leaf-up and spine-down) at factor 1/2 each, and a
	// bonded port sums its two plane flows, so 7.5e3 reproduces the ~15k
	// CNP/s per bonded port of the paper's Fig 11.
	CNPPerSecond float64

	// SettleWorkers bounds the goroutines used to fill the link components
	// a recompute re-fills concurrently (see parallel.go). Values <= 1 mean
	// serial. Results are byte-identical to a serial run because
	// components share no links, classes, or scratch entries.
	SettleWorkers int
}

// DefaultConfig returns the calibration used throughout the repository.
func DefaultConfig() Config {
	return Config{
		BaseLatency:  10 * sim.Microsecond,
		CNPPerSecond: 7.5e3,
	}
}

// FlowHandler receives a flow's notifications. FlowDone fires once, when
// the last bit is delivered; once it returns, the network may recycle the
// flow (see StartFlow), so neither the handler nor anyone else may keep
// the *Flow past that return. PathDown fires when a link on the flow's
// path fails, or when the flow is admitted onto an already-failed path;
// the handler may Reroute or Cancel the flow, and if it does neither the
// flow stalls at rate zero until the link recovers. A caller that starts
// many flows implements it on the object it already keeps per flow, so
// starting a flow allocates no closure.
type FlowHandler interface {
	FlowDone(*Flow)
	PathDown(*Flow)
}

// FlowFunc adapts a completion func to a FlowHandler whose PathDown does
// nothing: such a flow stalls on a failed path until the link recovers.
type FlowFunc func(*Flow)

// FlowDone calls fn, if it is not nil.
func (fn FlowFunc) FlowDone(f *Flow) {
	if fn != nil {
		fn(f)
	}
}

// PathDown does nothing.
func (FlowFunc) PathDown(*Flow) {}

// Flow is one in-flight transfer.
//
// A Flow is 128 bytes, two cache lines, and must not grow. settle updates
// every moving member's remaining bits at every completion and every
// mutation, its only per-member work, and on many-flow runs
// (netsim/scale-*) loading each member for that update is most of
// settle's time, so the fields settle and the kernel's fan-out read come
// first and share one cache line. Embedding the admission Event in the
// Flow would add a third cache line to every flow settle walks, so the
// Event is allocated beside the Flow, once per struct: it stays with its
// Flow through every recycling and is re-armed by each StartFlow that
// reuses it.
type Flow struct {
	Path *topo.Path

	remaining float64
	goodRate  float64    // bits per second actually delivered (rate minus loss)
	cnpRate   float64    // CNPs per second currently being received
	rate      float64    // bits per second, current allocation
	class     *flowClass // the class of the flow's link chain while admitted
	slot      int32      // index in Network.flows while admitted
	admitted  bool
	done      bool
	sizeBits  float64

	Label   string
	h       FlowHandler // nil: no notifications
	net     *Network
	admitEv *sim.Event  // the admission event, kept for the struct's life
	next    *Flow       // the free list's link while recycled
	span    *trace.Span // flow-lifetime span; nil when tracing is off
}

// Rate reports the flow's current bandwidth allocation in bits/second.
func (f *Flow) Rate() float64 { return f.rate }

// Goodput reports the flow's current delivered bandwidth in bits/second:
// the allocation scaled down by silent packet loss on the path. Equal to
// Rate when every link on the path is loss-free.
func (f *Flow) Goodput() float64 { return f.goodRate }

// Remaining reports undelivered bits.
func (f *Flow) Remaining() float64 { return f.remaining }

// SizeBits reports the flow's total size.
func (f *Flow) SizeBits() float64 { return f.sizeBits }

// Done reports whether the flow has completed or been cancelled.
func (f *Flow) Done() bool { return f.done }

// Network is the fluid simulator. All methods must be called from the
// simulation goroutine (inside engine callbacks).
type Network struct {
	Engine *sim.Engine
	Topo   *topo.Topology
	Cfg    Config

	// Trace, when non-nil, records a span per flow lifetime (submission to
	// completion, base latency included) plus instant events for reroutes
	// and path-down notifications as children of the flow span. Parentage
	// comes from the tracer's current scope, so flows started by a traced
	// collective op nest under it. Purely observational: no simulation
	// state reads it.
	Trace *trace.Tracer

	// flows holds the active flows in admission order. Removal leaves a
	// nil hole at the flow's slot instead of shifting its successors, and
	// the holes are squeezed out in order once they pass half the slice,
	// so every walk of flows skips nil entries.
	flows []*Flow
	holes int
	dirty bool // flow set or link state changed since last recompute

	// recomputeEv is the network's batched rate recompute (invalidate),
	// armed at most once per instant. The network owns it and re-arms it
	// in place, as it does completeEv.
	recomputeEv *sim.Event

	// Flow-class state (see class.go): live classes in admission order for
	// deterministic kernel iteration, plus a key index for O(1) membership
	// on admit/reroute that also keeps dead classes for revival. marked
	// lists the classes whose membership changed since the last recompute,
	// and linksChanged records a link capacity, loss or health change
	// since then; together they decide what the next recompute re-fills.
	classes      []*flowClass
	classIndex   map[string]*flowClass
	classKey     []byte // scratch for key building
	marked       []*flowClass
	linksChanged bool

	// completeEv is the single next-completion event. Flows complete when
	// their remaining bits reach zero at the scheduled instant; keeping one
	// event for the whole network (instead of one per flow rescheduled on
	// every rate change), re-armed in place, keeps the engine's queue small
	// and allocates nothing per completion wave. settle
	// collects the flows whose remaining bits it brings to zero in drained,
	// so completions needs no scan.
	completeEv *sim.Event
	drained    []*Flow

	// free lists completed flows for StartFlow to reuse, linked through
	// Flow.next; see StartFlow for the ownership rule.
	free *Flow

	// carriedBits accumulates delivered bits per link (indexed by link ID)
	// for bandwidth sampling (Fig 13); cnpCount accumulates CNPs per
	// physical source port, indexed by the port's up-link ID (Fig 11).
	carriedBits []float64
	cnpCount    []float64
	lastSettle  sim.Time

	// lossFrac is the silent packet-drop fraction per link (indexed by
	// link ID). A lossy link stays Up and keeps its capacity — senders
	// burn wire bandwidth on retransmissions — but goodput across it
	// shrinks by the loss factor, which is exactly the failure mode only
	// transport-level statistics (C4D) can see.
	lossFrac []float64

	// Scratch state reused across recompute calls. Link IDs are dense
	// (indices into Topo.Links), so slice-indexed accumulators replace the
	// per-call maps that otherwise dominate the simulator's CPU profile.
	scCap     []float64      // remaining capacity during progressive filling
	scCount   []int          // unfrozen flows on the link
	scClasses [][]*flowClass // classes crossing the link
	scMark    []uint64       // bit per link ID: the link is in the region
	scLoadCnt []int          // allocated flows on the link (CNP pass)
	scFactor  []float64      // CNP contention factor; 0 = not saturated
	scTouched []int          // the region's link IDs, ascending (partition)
	region    []*flowClass   // alive classes being re-filled, n.classes order

	// Incremental read-path counters: flowsOn tracks active-flow membership
	// per link (maintained at admit/remove/reroute), and utilRate holds the
	// aggregate allocated rate per link, written by the fill of the link's
	// component and zeroed when the component dissolves. Together they
	// make FlowsOn and Utilization O(1) instead of scans over every active
	// flow.
	flowsOn  []int
	utilRate []float64

	// Link components (see parallel.go): the live ones, each link's owner
	// (nil when no alive class crosses it), a free list, and union-find
	// scratch.
	comps    []*component
	linkComp []*component
	compFree []*component
	ufParent []int32

	// kernel is the rate recompute, recomputeClasses. It is a field only
	// so that the package's tests can swap in the per-flow oracle
	// (oracle_test.go); nothing else sets it.
	kernel func(*Network)

	// check, when non-nil, receives every max-min certificate violation,
	// checked after each recompute (certificate.go); chk is the check's
	// scratch.
	check func(error)
	chk   []float64

	stats KernelStats
}

// New creates a simulator bound to an engine and fabric.
func New(eng *sim.Engine, t *topo.Topology, cfg Config) *Network {
	if w := forcedWorkers.Load(); w != 0 {
		cfg.SettleWorkers = int(w)
	}
	nl := len(t.Links)
	n := &Network{
		Engine:      eng,
		Topo:        t,
		Cfg:         cfg,
		classIndex:  make(map[string]*flowClass),
		carriedBits: make([]float64, nl),
		cnpCount:    make([]float64, nl),
		lossFrac:    make([]float64, nl),
		scCap:       make([]float64, nl),
		scCount:     make([]int, nl),
		scClasses:   make([][]*flowClass, nl),
		scMark:      make([]uint64, (nl+63)/64),
		scLoadCnt:   make([]int, nl),
		scFactor:    make([]float64, nl),
		flowsOn:     make([]int, nl),
		utilRate:    make([]float64, nl),
		linkComp:    make([]*component, nl),
		ufParent:    make([]int32, nl),
		kernel:      (*Network).recomputeClasses,
	}
	n.recomputeEv = sim.NewEvent(sim.Func(n.recompute))
	n.completeEv = sim.NewEvent(sim.Func(n.completions))
	if report := forcedCheck.Load(); report != nil {
		n.check = *report
	}
	return n
}

// StartFlow submits a transfer of sizeBits along path and is the one way
// to start a flow. h receives the flow's completion and path-down
// notifications and may be nil; a completion func adapts through
// FlowFunc. The flow is admitted BaseLatency later, by an engine event
// whose handler is the flow itself. The returned flow can be rerouted or
// cancelled.
//
// Flows are recycled under one ownership rule:
//   - the returned *Flow belongs to the caller until its FlowDone
//     returns;
//   - after that, the network may hand the same struct to a later
//     StartFlow. Until it does, Done keeps reporting true, and nothing
//     else about the flow may be used;
//   - a cancelled flow is never recycled: Cancel may run while the flow
//     waits in a completion wave, or while its cancelled admission Event
//     still sits in the engine's queue.
//
// StartFlow takes the flow and its admission Event from the free list and
// re-arms the Event, which gets a fresh sequence number exactly as a new
// event would; it allocates the pair only when the list is empty.
func (n *Network) StartFlow(path *topo.Path, sizeBits float64, label string, h FlowHandler) *Flow {
	if sizeBits <= 0 {
		sizeBits = 1 // zero-size control message: deliver after latency
	}
	f := n.free
	var ev *sim.Event
	if f != nil {
		n.free, ev = f.next, f.admitEv
	} else {
		f = new(Flow)
		ev = sim.NewEvent((*admission)(f))
	}
	*f = Flow{
		Label:     label,
		Path:      path,
		h:         h,
		net:       n,
		sizeBits:  sizeBits,
		remaining: sizeBits,
		admitEv:   ev,
	}
	if n.Trace.Enabled() {
		f.span = n.Trace.Start(nil, "flow", label).Annotate("path", pathLabel(path))
	}
	n.Engine.Arm(ev, n.Engine.Now()+max(n.Cfg.BaseLatency, 0))
	return f
}

// admission is a Flow as the handler of its admission event; the named
// type keeps Fire off Flow's own method set.
type admission Flow

// Fire admits the flow.
func (a *admission) Fire() {
	f := (*Flow)(a)
	f.net.admit(f)
}

// admit moves a submitted flow into the flow set once its base latency
// has elapsed.
func (n *Network) admit(f *Flow) {
	f.admitted = true
	f.slot = int32(len(n.flows))
	n.flows = append(n.flows, f)
	for _, l := range f.Path.Links {
		n.flowsOn[l.ID]++
	}
	n.classAdmit(f)
	n.invalidate()
	// A flow submitted onto an already-failed path would otherwise be
	// admitted silently at rate zero: SetLinkUp only notifies flows that
	// exist when the link goes down, so nothing would ever fire PathDown
	// and a pinned-route sender would wait on FlowDone forever. Health is
	// checked post-admission so the handler may Reroute or Cancel the flow
	// like any other down-path notification.
	if !f.done && f.h != nil && !f.Path.Up() {
		n.Trace.Event(f.span, "path-down", "admitted-on-down-path")
		f.h.PathDown(f)
	}
}

// Cancel removes a flow without completing it.
func (n *Network) Cancel(f *Flow) {
	if f.done {
		return
	}
	// Settle before mutating the flow set, exactly like Reroute and the
	// SetLink* mutators: the window since lastSettle was carried by the old
	// flow set, and removing the flow first would drop its delivered bits
	// (and CNPs) from the per-link counters for that window.
	if f.admitted {
		n.settle()
	}
	f.done = true
	f.span.Annotate("cancelled", "1")
	f.span.FinishAt(n.Engine.Now())
	if !f.admitted {
		f.admitEv.Cancel()
		return
	}
	n.remove(f)
	n.invalidate()
}

// Reroute moves a live flow onto a new path; remaining bits carry over.
// The flow leaves its current class and joins (or creates) the class of
// the new link chain.
func (n *Network) Reroute(f *Flow, path *topo.Path) {
	if f.done {
		return
	}
	if n.Trace.Enabled() {
		n.Trace.Event(f.span, "reroute", pathLabel(path))
	}
	n.settle()
	if f.admitted {
		for _, l := range f.Path.Links {
			n.flowsOn[l.ID]--
		}
		n.classRemove(f)
	}
	f.Path = path
	if f.admitted {
		for _, l := range f.Path.Links {
			n.flowsOn[l.ID]++
		}
		n.classAdmit(f)
	}
	n.invalidate()
}

// SetLinkCapacity changes a link's capacity (in Gbps), modeling partial
// degradations such as a NIC renegotiating to a lower rate or a PCIe width
// downgrade. Active flows are re-allocated immediately.
func (n *Network) SetLinkCapacity(l *topo.Link, gbps float64) {
	if gbps < 0 {
		gbps = 0
	}
	n.settle()
	l.Gbps = gbps
	n.linksChanged = true
	n.invalidate()
}

// SetLinkLoss sets a link's silent packet-drop fraction in [0, 0.99]. The
// link stays healthy and keeps its wire capacity; flows crossing it deliver
// only a (1-frac) share of their allocated rate. Losses on multiple links
// of one path compound multiplicatively.
func (n *Network) SetLinkLoss(l *topo.Link, frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 0.99 {
		frac = 0.99 // total silence would be a down link, not a lossy one
	}
	n.settle()
	n.lossFrac[l.ID] = frac
	n.linksChanged = true
	n.invalidate()
}

// LinkLoss reports a link's current silent packet-drop fraction.
func (n *Network) LinkLoss(l *topo.Link) float64 { return n.lossFrac[l.ID] }

// SetLinkUp changes a link's health and notifies affected flows.
func (n *Network) SetLinkUp(l *topo.Link, up bool) {
	if l.Up() == up {
		return
	}
	n.settle()
	l.SetUp(up)
	n.linksChanged = true
	if !up {
		// Copy: handlers may reroute/cancel, mutating n.flows.
		var hit []*Flow
		for _, f := range n.flows {
			if f == nil {
				continue
			}
			for _, pl := range f.Path.Links {
				if pl == l {
					hit = append(hit, f)
					break
				}
			}
		}
		for _, f := range hit {
			if !f.done && f.h != nil {
				n.Trace.Event(f.span, "path-down", l.Name)
				f.h.PathDown(f)
			}
		}
	}
	n.invalidate()
}

// ActiveFlows reports the number of admitted, unfinished flows.
func (n *Network) ActiveFlows() int { return len(n.flows) - n.holes }

// CarriedBits reports cumulative bits delivered over a link.
func (n *Network) CarriedBits(l *topo.Link) float64 {
	n.flush()
	return n.carriedBits[l.ID]
}

// CNPCount reports cumulative congestion notifications received by the
// sender behind the given physical port.
func (n *Network) CNPCount(p *topo.Port) float64 {
	n.flush()
	return n.cnpCount[p.Up.ID]
}

// FlowsOn reports how many active flows traverse the link. Membership is
// maintained incrementally at admit/remove/reroute, so this is O(1).
func (n *Network) FlowsOn(l *topo.Link) int {
	return n.flowsOn[l.ID]
}

// Utilization reports the current aggregate rate on a link in bits/second,
// from the per-link snapshot taken at the end of the last recompute (O(1),
// no flow scan). flush first runs any recompute pending at this instant,
// so a reader in the same callback as a SetLink*/StartFlow mutation sees
// post-mutation rates.
func (n *Network) Utilization(l *topo.Link) float64 {
	n.flush()
	return n.utilRate[l.ID]
}

// Stats reports cumulative deterministic work counters for the rate
// kernel. They count algorithmic steps, not wall-clock, so they are
// byte-for-byte reproducible and safe to track in bench baselines.
func (n *Network) Stats() KernelStats { return n.stats }

// ClassCount reports the number of live flow classes: distinct link
// chains carrying at least one admitted flow.
func (n *Network) ClassCount() int { return len(n.classes) }

// ComponentCount reports how many independent link components the alive
// classes form as of the last recompute: the components that persist
// between recomputes, and the available parallelism for SettleWorkers
// when a change reaches all of them.
func (n *Network) ComponentCount() int { return len(n.comps) }

// remove takes an admitted flow out of the flow set in O(1) amortized: it
// leaves a hole at the flow's slot and compacts n.flows once holes pass
// half of it.
func (n *Network) remove(f *Flow) {
	n.flows[f.slot] = nil
	n.holes++
	if n.holes > len(n.flows)/2 {
		live := n.flows[:0]
		for _, g := range n.flows {
			if g != nil {
				g.slot = int32(len(live))
				live = append(live, g)
			}
		}
		clear(n.flows[len(live):])
		n.flows = live
		n.holes = 0
	}
	for _, l := range f.Path.Links {
		n.flowsOn[l.ID]--
	}
	n.classRemove(f)
}

// invalidate schedules a single rate recomputation at the current instant.
func (n *Network) invalidate() {
	n.dirty = true
	if n.recomputePending() {
		return
	}
	n.Engine.Arm(n.recomputeEv, n.Engine.Now())
}

// recomputePending reports whether the batched recompute is armed for the
// current instant.
func (n *Network) recomputePending() bool {
	return n.recomputeEv.Queued() && n.recomputeEv.At() == n.Engine.Now()
}

// flush brings every observable up to the current instant. Mutators
// (StartFlow admission, SetLink*, Cancel, Reroute) batch their rate
// recomputation into a single After(0) event, so between a mutation and
// that event firing the flow rates are stale; a reader in that window —
// same virtual instant, later callback — must not see pre-mutation rates.
// flush runs the pending recomputation early (the event itself then fires
// as a no-op, keeping the engine's event accounting unchanged) and settles
// the carried-bit/CNP counters.
func (n *Network) flush() {
	if n.dirty && n.recomputePending() {
		n.recomputeNow()
		return
	}
	n.settle()
}

// settle advances all flows to the current instant at their current rates,
// class by class. Each moving member's remaining bits drop by what it
// delivered, clamped at zero, and a member whose remaining bits reach
// zero joins n.drained for the next completions; the class then charges
// its members' summed delivered bits once to each link of its chain and
// their summed CNP rate once to its source port. The per-link and per-port
// counters therefore round per class, as Utilization does, while every
// member's remaining bits round exactly as a flow-by-flow walk would.
func (n *Network) settle() {
	now := n.Engine.Now()
	dt := (now - n.lastSettle).Seconds()
	n.lastSettle = now
	if dt <= 0 {
		return
	}
	for _, fc := range n.classes {
		bits, cnp := 0.0, 0.0
		for _, f := range fc.members {
			if f.goodRate <= 0 {
				continue // stalled, or admitted since the last recompute
			}
			delta := f.goodRate * dt
			if delta >= f.remaining {
				if f.remaining > 0 {
					n.drained = append(n.drained, f)
				}
				delta = f.remaining
			}
			f.remaining -= delta
			bits += delta
			cnp += f.cnpRate
		}
		if bits > 0 {
			for ids := fc.chain(); len(ids) > 0; ids = ids[4:] {
				n.carriedBits[keyID(ids)] += bits
			}
		}
		if cnp > 0 && fc.port >= 0 {
			n.cnpCount[fc.port] += cnp * dt
		}
	}
}

// recompute is the deferred After(0) rate-recomputation event. The dirty
// check lets a read-path flush run the work early in the same instant: the
// event then fires as a no-op, so engine event accounting is independent
// of whether (and when) anyone read an observable.
func (n *Network) recompute() {
	if !n.dirty {
		return
	}
	n.recomputeNow()
}

// recomputeNow performs max-min fair allocation (progressive filling)
// across all admitted flows and reschedules the completion event.
func (n *Network) recomputeNow() {
	n.settle()
	n.dirty = false
	n.stats.Recomputes++
	n.kernel(n)
	if n.check != nil {
		if err := n.CheckMaxMin(); err != nil {
			n.check(fmt.Errorf("recompute %d at %v: %w", n.stats.Recomputes, n.Engine.Now(), err))
		}
	}
}

func (n *Network) linkCap(id int) float64 {
	return n.Topo.Links[id].Gbps * Gbps
}

// completions fires at the earliest completion ETA: it settles flows to
// the current instant and finishes every flow that has no bits left — the
// flows settle drained since the last completions, in admission (slot)
// order. Flows whose rate changed since the ETA was computed simply are not
// at zero yet; the recompute scheduled here re-arms the event for them.
func (n *Network) completions() {
	n.settle()
	slices.SortFunc(n.drained, func(a, b *Flow) int { return cmp.Compare(a.slot, b.slot) })
	n.invalidate()
	// Finish flows one at a time, callback included, exactly as the old
	// per-flow completion events did: a FlowDone handler may Cancel a
	// same-instant batchmate, and that flow must then neither complete nor
	// see its callback fire. Handlers cannot add to drained meanwhile: a
	// settle at the instant that was just settled returns at once.
	for _, f := range n.drained {
		if f.done {
			continue // cancelled since it drained, maybe by a batchmate's handler
		}
		f.remaining = 0
		f.done = true
		f.span.FinishAt(n.Engine.Now())
		n.remove(f)
		if f.h != nil {
			f.h.FlowDone(f)
		}
		// The caller's ownership ended with FlowDone: recycle the flow,
		// keeping done set and dropping every pointer into the caller's
		// objects.
		f.Path, f.h, f.span, f.Label = nil, nil, nil, ""
		f.next, n.free = n.free, f
	}
	clear(n.drained)
	n.drained = n.drained[:0]
}

// pathLabel renders a path for span attributes. topo.Path.String assumes
// fabric endpoints; intra-node (NVLink) paths have no ports, so fall back
// to the link chain's first name.
func pathLabel(p *topo.Path) string {
	if p == nil {
		return ""
	}
	if p.SrcPort == nil || p.DstPort == nil {
		if len(p.Links) > 0 {
			return p.Links[0].Name
		}
		return "local"
	}
	return p.String()
}

// String summarizes the simulator state; useful in debugging sessions.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{t=%v flows=%d}", n.Engine.Now(), n.ActiveFlows())
}
