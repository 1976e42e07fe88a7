// Package accl simulates the Alibaba Collective Communication Library as
// extended by C4 (HPCA'25 §III): collective operations over RDMA QPs whose
// paths are controlled by a pluggable provider (baseline ECMP hashing or
// the C4P traffic-engineering master), with the runtime monitoring hooks —
// communicator, operation and transport statistics — that C4D's detectors
// consume.
//
// Granularity: one simulated worker per node. The paper's delay matrix and
// isolation decisions operate on nodes/NICs, and intra-node GPU hops ride
// dedicated NVLink pairs, so collapsing the 8 local GPUs preserves every
// syndrome C4D must observe while keeping flow counts tractable. GPU
// counts still matter for bus-bandwidth arithmetic and come from the
// topology's Spec.GPUsPerNode.
package accl

import (
	"fmt"
	"sort"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// Config wires a communicator to the simulated fabric.
type Config struct {
	Engine   *sim.Engine
	Net      *netsim.Network
	Provider PathProvider
	Sink     StatsSink // nil disables monitoring
	Rand     *sim.Rand

	// Rails lists the NIC rails this communicator stripes traffic across.
	// Empty means rail 0 only.
	Rails []int
	// QPsPerConn is the number of QPs opened per (edge, rail); the paper's
	// deployment uses one per physical port. Default 2.
	QPsPerConn int
	// Stepwise runs ring collectives chunk-by-chunk with receiver-driven
	// hand-offs instead of the fluid single-shot approximation. Slower but
	// produces the per-step message series C4D's detectors analyze.
	Stepwise bool
}

// Communicator executes collectives among a fixed set of nodes.
type Communicator struct {
	ID    int
	cfg   Config
	nodes []int // member nodes, ring order
	conns map[connKey]*Conn
	seq   int
	rand  *sim.Rand
	// adaptive turns on ACCL's message-completion-time feedback, read once
	// from the provider (PathProvider.Adaptive).
	adaptive bool

	// crashed nodes never arrive at collectives.
	crashed map[int]bool

	// Scratch for planning a rail send (healthyQPs, planShares), reused
	// across sends; nothing holds any of them past the send that fills it.
	healthy []*QP
	byPlane [topo.Planes][]*QP
	planned []*share

	// Free lists of finished shares and transfers, linked through their
	// next fields. A share returns once its flow's FlowDone has emitted
	// its record and fed back its throughput, a transfer once its onDone
	// has returned; each communicator keeps its own, so runs share none.
	freeShares *share
	freeXfers  *xfer
}

type connKey struct {
	src, dst, rail int
}

// NewCommunicator creates a communicator over the given nodes (ring order
// as listed). Nodes must be distinct.
func NewCommunicator(cfg Config, nodes []int) (*Communicator, error) {
	if cfg.Engine == nil || cfg.Net == nil || cfg.Provider == nil {
		return nil, fmt.Errorf("accl: Engine, Net and Provider are required")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("accl: communicator needs at least one node")
	}
	seen := map[int]bool{}
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("accl: duplicate node %d", n)
		}
		seen[n] = true
	}
	if len(cfg.Rails) == 0 {
		cfg.Rails = []int{0}
	}
	if cfg.QPsPerConn <= 0 {
		cfg.QPsPerConn = 2
	}
	if cfg.Rand == nil {
		cfg.Rand = sim.NewRand(1)
	}
	c := &Communicator{
		ID:       cfg.Engine.NextID("comm"),
		cfg:      cfg,
		nodes:    append([]int(nil), nodes...),
		conns:    make(map[connKey]*Conn),
		rand:     cfg.Rand.Fork(),
		adaptive: cfg.Provider.Adaptive(),
		crashed:  make(map[int]bool),
	}
	if cfg.Sink != nil {
		cfg.Sink.OnCommCreate(CommInfo{Comm: c.ID, Nodes: append([]int(nil), nodes...)})
	}
	return c, nil
}

// Nodes returns the member nodes in ring order.
func (c *Communicator) Nodes() []int { return append([]int(nil), c.nodes...) }

// Size reports the number of member nodes.
func (c *Communicator) Size() int { return len(c.nodes) }

// TotalGPUs reports the GPU count behind the communicator.
func (c *Communicator) TotalGPUs() int { return len(c.nodes) * c.cfg.Net.Topo.Spec.GPUsPerNode }

// SetCrashed marks a node as crashed: it will never arrive at subsequent
// collectives, which is the non-communication-hang syndrome.
func (c *Communicator) SetCrashed(node int, crashed bool) { c.crashed[node] = crashed }

// Close releases all transport resources and tells the monitoring sink the
// communicator is gone, so C4D stops tracking its (possibly stalled) state.
func (c *Communicator) Close() {
	for _, conn := range c.sortedConns() {
		for _, qp := range conn.QPs {
			if qp.assign != nil {
				c.cfg.Provider.Release(qp.assign)
			}
		}
	}
	c.conns = map[connKey]*Conn{}
	if c.cfg.Sink != nil {
		c.cfg.Sink.OnCommClose(c.ID)
	}
}

func (c *Communicator) sortedConns() []*Conn {
	keys := make([]connKey, 0, len(c.conns))
	for k := range c.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.rail < b.rail
	})
	out := make([]*Conn, len(keys))
	for i, k := range keys {
		out[i] = c.conns[k]
	}
	return out
}

// Conn is the transport between two nodes on one rail: a bundle of QPs
// whose paths the provider controls.
type Conn struct {
	Src, Dst, Rail int
	QPs            []*QP
}

// QP is one simulated RDMA queue pair.
type QP struct {
	QPN    int
	assign *Assignment
	weight float64
	ewma   float64 // measured bits/s of recent messages
	broken bool    // no healthy path obtainable
}

// Assignment is a provider's routing decision for a QP.
type Assignment struct {
	Path  *topo.Path
	Sport uint16
	// Token is provider-private state used on Release/Repair.
	Token any
}

// Weight reports the QP's current share of its connection's traffic.
func (q *QP) Weight() float64 { return q.weight }

// Path reports the QP's current route (nil when broken).
func (q *QP) Path() *topo.Path {
	if q.assign == nil {
		return nil
	}
	return q.assign.Path
}

// getConn returns (creating if needed) the transport src -> dst on rail.
func (c *Communicator) getConn(src, dst, rail int) (*Conn, error) {
	key := connKey{src, dst, rail}
	if conn, ok := c.conns[key]; ok {
		return conn, nil
	}
	conn := &Conn{Src: src, Dst: dst, Rail: rail}
	for i := 0; i < c.cfg.QPsPerConn; i++ {
		qp := &QP{QPN: 1000 + c.cfg.Engine.NextID("qpn"), weight: 1 / float64(c.cfg.QPsPerConn)}
		req := ConnRequest{
			Comm: c.ID, SrcNode: src, DstNode: dst, Rail: rail,
			QPN: qp.QPN, QPIndex: i, QPCount: c.cfg.QPsPerConn,
		}
		as, err := c.cfg.Provider.Connect(req)
		if err != nil {
			qp.broken = true
		} else {
			qp.assign = as
		}
		conn.QPs = append(conn.QPs, qp)
	}
	c.conns[key] = conn
	return conn, nil
}

// RefreshPaths pushes every QP whose current path matches pred back
// through the provider's Repair. It models an ECMP group-membership
// change: when a link is withdrawn, the switch remaps hash buckets and
// every flow on that leaf may land somewhere new — under C4P static mode
// the repair is exactly that uncoordinated rehash, under dynamic mode the
// master re-places the QP on the least-loaded healthy path. Subsequent
// messages use the new routes; in-flight transfers finish on their old
// (still healthy) paths, as on real hardware where established connections
// drain.
func (c *Communicator) RefreshPaths(pred func(*topo.Path) bool) {
	for _, conn := range c.sortedConns() {
		for i, qp := range conn.QPs {
			if qp.assign == nil || !pred(qp.assign.Path) {
				continue
			}
			req := ConnRequest{
				Comm: c.ID, SrcNode: conn.Src, DstNode: conn.Dst, Rail: conn.Rail,
				QPN: qp.QPN, QPIndex: i, QPCount: len(conn.QPs),
			}
			as, err := c.cfg.Provider.Repair(req, qp.assign)
			if err != nil {
				qp.broken = true
				continue
			}
			qp.assign = as
			qp.broken = false
		}
	}
}

// healthyQPs returns QPs with a live path, attempting repair of broken
// ones. The result is the communicator's scratch, valid until the next
// call.
func (c *Communicator) healthyQPs(conn *Conn) []*QP {
	out := c.healthy[:0]
	for i, qp := range conn.QPs {
		if qp.assign == nil || !qp.assign.Path.Up() {
			req := ConnRequest{
				Comm: c.ID, SrcNode: conn.Src, DstNode: conn.Dst, Rail: conn.Rail,
				QPN: qp.QPN, QPIndex: i, QPCount: len(conn.QPs),
			}
			as, err := c.cfg.Provider.Repair(req, qp.assign)
			if err != nil {
				qp.broken = true
				continue
			}
			qp.assign = as
			qp.broken = false
		}
		out = append(out, qp)
	}
	c.healthy = out
	return out
}

// recordThroughput feeds ACCL's adaptive path selection: each message's
// measured bandwidth updates the QP's EWMA, and the QPs sharing the same
// physical plane re-weight toward the faster paths. Weights never shift
// load *between* planes — the dual-port 50/50 balance is C4P's invariant —
// only across the spines within a plane (the paper's "evaluates message
// completion times on various paths and prioritizes the fastest").
func (c *Communicator) recordThroughput(conn *Conn, qp *QP, bits float64, dur sim.Time) {
	if dur <= 0 {
		return
	}
	bps := bits / dur.Seconds()
	const alpha = 0.5
	if qp.ewma == 0 {
		qp.ewma = bps
	} else {
		qp.ewma = alpha*bps + (1-alpha)*qp.ewma
	}
	if !c.adaptive || qp.assign == nil {
		return
	}
	plane := qp.assign.Path.SrcPort.Plane
	var total float64
	for _, q := range conn.QPs {
		if q.reweighs(plane) {
			total += q.ewma
		}
	}
	if total <= 0 {
		return
	}
	for _, q := range conn.QPs {
		if q.reweighs(plane) {
			q.weight = q.ewma / total
		}
	}
}

// reweighs reports whether q is a peer that recordThroughput re-weights on
// the given plane: routed, not broken, with a measured throughput.
func (q *QP) reweighs(plane int) bool {
	return !q.broken && q.assign != nil && q.ewma > 0 && q.assign.Path.SrcPort.Plane == plane
}
