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
// independent components that can settle on a worker pool
// (Config.SettleWorkers) in filling rounds driven by the global
// bottleneck. Parallel settle is pure performance: it must reproduce the
// serial run bit for bit — same rates, same completion instants, same
// event counts. The package's tests hold both to the per-flow reference
// kernel, kept as a test oracle, and the accl and harness tests pin whole
// workloads to goldens recorded from it.
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

	// SettleWorkers bounds the goroutines used to run progressive filling
	// over independent link components concurrently (see parallel.go).
	// Values <= 1 mean serial. Results are byte-identical to a serial run
	// because components share no links, classes, or scratch entries.
	SettleWorkers int
}

// DefaultConfig returns the calibration used throughout the repository.
func DefaultConfig() Config {
	return Config{
		BaseLatency:  10 * sim.Microsecond,
		CNPPerSecond: 7.5e3,
	}
}

// Flow is one in-flight transfer.
type Flow struct {
	ID    int
	Label string
	Path  *topo.Path

	// OnComplete fires when the last bit is delivered.
	OnComplete func(*Flow)
	// OnPathDown fires when a link on the flow's path fails. The handler
	// may Reroute or Cancel the flow; if it does neither the flow stalls
	// at rate zero until the link recovers.
	OnPathDown func(*Flow)

	sizeBits  float64
	remaining float64
	rate      float64 // bits per second, current allocation
	goodRate  float64 // bits per second actually delivered (rate minus loss)
	cnpRate   float64 // CNPs per second currently being received
	started   sim.Time
	admitted  bool
	done      bool
	slot      int32      // index in Network.flows while admitted
	class     *flowClass // the class of the flow's link chain while admitted
	admitEv   *sim.Event
	span      *trace.Span // flow-lifetime span; nil when tracing is off
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

// Started reports when the flow was submitted.
func (f *Flow) Started() sim.Time { return f.started }

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
	flows   []*Flow
	holes   int
	nextID  int
	pending *sim.Event // scheduled recompute, nil if none
	dirty   bool       // flow set or link state changed since last recompute

	// Flow-class state (see class.go): live classes in admission order for
	// deterministic kernel iteration, plus a key index for O(1) membership
	// on admit/reroute that also keeps dead classes for revival.
	classes    []*flowClass
	classIndex map[string]*flowClass
	classKey   []byte // scratch for key building

	// completeEv is the single next-completion event. Flows complete when
	// their remaining bits reach zero at the scheduled instant; keeping one
	// event for the whole network (instead of one per flow rescheduled on
	// every rate change) keeps the engine's queue small and cheap. settle
	// collects the flows whose remaining bits it brings to zero in drained,
	// so completions needs no scan.
	completeEv *sim.Event
	drained    []*Flow

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
	scSeen    []bool         // link appears in scTouched
	scLoad    []float64      // aggregate allocated rate (CNP pass)
	scLoadCnt []int          // allocated flows on the link (CNP pass)
	scFactor  []float64      // CNP contention factor; 0 = not saturated
	scTouched []int          // link IDs referenced by the current flow set

	// Incremental read-path counters: flowsOn tracks active-flow membership
	// per link (maintained at admit/remove/reroute), and utilRate snapshots
	// the aggregate allocated rate per link at the end of each recompute
	// (utilLinks lists the links holding a nonzero snapshot so the next
	// recompute can clear them). Together they make FlowsOn and Utilization
	// O(1) instead of scans over every active flow.
	flowsOn   []int
	utilRate  []float64
	utilLinks []int

	// Union-find and component scratch for the parallel settle partition
	// (see parallel.go).
	ufParent  []int32
	compSlot  []int32
	compPool  []*component
	round     []*component // components taking part in a filling round
	lastComps int

	// kernel is the rate recompute, recomputeClasses. It is a field only
	// so that the package's tests can swap in the per-flow oracle
	// (oracle_test.go); nothing else sets it.
	kernel func(*Network)

	stats KernelStats
}

// New creates a simulator bound to an engine and fabric.
func New(eng *sim.Engine, t *topo.Topology, cfg Config) *Network {
	if w := forcedWorkers.Load(); w != 0 {
		cfg.SettleWorkers = int(w)
	}
	nl := len(t.Links)
	return &Network{
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
		scSeen:      make([]bool, nl),
		scLoad:      make([]float64, nl),
		scLoadCnt:   make([]int, nl),
		scFactor:    make([]float64, nl),
		flowsOn:     make([]int, nl),
		utilRate:    make([]float64, nl),
		ufParent:    make([]int32, nl),
		compSlot:    make([]int32, nl),
		kernel:      (*Network).recomputeClasses,
	}
}

// StartFlow submits a transfer of sizeBits along path. onComplete may be
// nil. The returned flow can be rerouted or cancelled.
func (n *Network) StartFlow(path *topo.Path, sizeBits float64, label string, onComplete func(*Flow)) *Flow {
	if sizeBits <= 0 {
		sizeBits = 1 // zero-size control message: deliver after latency
	}
	n.nextID++
	f := &Flow{
		ID:         n.nextID,
		Label:      label,
		Path:       path,
		OnComplete: onComplete,
		sizeBits:   sizeBits,
		remaining:  sizeBits,
		started:    n.Engine.Now(),
	}
	if n.Trace.Enabled() {
		f.span = n.Trace.Start(nil, "flow", label).Annotate("path", pathLabel(path))
	}
	f.admitEv = n.Engine.After(n.Cfg.BaseLatency, func() {
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
		// exist when the link goes down, so nothing would ever fire
		// OnPathDown and a pinned-route sender would wait on OnComplete
		// forever. Health is checked post-admission so the handler may
		// Reroute or Cancel the flow like any other down-path notification.
		if !f.done && f.OnPathDown != nil && !f.Path.Up() {
			n.Trace.Event(f.span, "path-down", "admitted-on-down-path")
			f.OnPathDown(f)
		}
	})
	return f
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
	if f.admitEv != nil {
		f.admitEv.Cancel()
	}
	if f.admitted {
		n.remove(f)
		n.invalidate()
	}
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
			if !f.done && f.OnPathDown != nil {
				n.Trace.Event(f.span, "path-down", l.Name)
				f.OnPathDown(f)
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

// ComponentCount reports how many independent link components the last
// recompute partitioned the traffic into — the available parallelism for
// SettleWorkers.
func (n *Network) ComponentCount() int { return n.lastComps }

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
	if n.pending != nil && !n.pending.Cancelled() && n.pending.At() == n.Engine.Now() {
		return
	}
	n.pending = n.Engine.After(0, n.recompute)
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
	if n.dirty && n.pending != nil && !n.pending.Cancelled() && n.pending.At() == n.Engine.Now() {
		n.recomputeNow()
		return
	}
	n.settle()
}

// settle advances all flows to the current instant at their current rates,
// updating remaining bits, per-link carried-bit counters, and CNP counters.
// A flow whose remaining bits reach zero joins n.drained for the next
// completions.
func (n *Network) settle() {
	now := n.Engine.Now()
	dt := (now - n.lastSettle).Seconds()
	n.lastSettle = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		if f == nil || f.goodRate <= 0 {
			continue
		}
		delta := f.goodRate * dt
		if delta >= f.remaining {
			if f.remaining > 0 {
				n.drained = append(n.drained, f)
			}
			delta = f.remaining
		}
		f.remaining -= delta
		for _, l := range f.Path.Links {
			n.carriedBits[l.ID] += delta
		}
		if f.cnpRate > 0 && f.Path.SrcPort != nil {
			n.cnpCount[f.Path.SrcPort.Up.ID] += f.cnpRate * dt
		}
	}
}

// recompute is the deferred After(0) rate-recomputation event. The dirty
// check lets a read-path flush run the work early in the same instant: the
// event then fires as a no-op, so engine event accounting is independent
// of whether (and when) anyone read an observable.
func (n *Network) recompute() {
	n.pending = nil
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
	n.completeEv = nil
	n.settle()
	slices.SortFunc(n.drained, func(a, b *Flow) int { return cmp.Compare(a.slot, b.slot) })
	n.invalidate()
	// Finish flows one at a time, callback included, exactly as the old
	// per-flow completion events did: an OnComplete handler may Cancel a
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
		if f.OnComplete != nil {
			f.OnComplete(f)
		}
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
