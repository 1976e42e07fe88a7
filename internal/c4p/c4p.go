// Package c4p implements the C4P (C4 Performance) subsystem of the paper
// (§III-B): a cluster-scale traffic-engineering master that plans the
// network path of every RDMA QP. Because training traffic is a small number
// of long-lived elephant flows, the master can:
//
//  1. identify and avoid faulty leaf–spine links at task start-up
//     (path probing),
//  2. balance QPs across healthy spines and across the two bonded NIC
//     ports — forbidding cross-plane paths so receive-side load stays
//     balanced (Fig 9), and
//  3. react to link failures either statically (data-plane ECMP rehash,
//     Fig 12a) or dynamically (master reallocation plus ACCL's
//     completion-time-driven QP re-weighting, Fig 12b).
//
// The master implements accl.PathProvider, so enabling C4P for a job is a
// one-line provider swap — mirroring how the production deployment slots
// under ACCL without framework changes. ProviderKind names the three
// path-control policies the evaluation compares and builds each one's
// provider; every CLI, session spec and experiment picks its policy
// through it.
package c4p

import (
	"fmt"
	"sort"

	"c4/internal/accl"
	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// Mode selects the failure-response policy.
type Mode int

const (
	// Static plans paths at connect time only; failures fall back to the
	// fabric's ECMP rehash with no master involvement (Fig 12a).
	Static Mode = iota
	// Dynamic additionally reallocates failed QPs through the master,
	// keeping the global load balanced after topology changes (Fig 12b).
	Dynamic
)

func (m Mode) String() string {
	if m == Dynamic {
		return "dynamic"
	}
	return "static"
}

// ProviderKind is a path-control policy: which provider routes a job's
// QPs and, through that provider's Adaptive, whether ACCL re-weights
// them. It is the one place the choice is made.
type ProviderKind int

// The three policies compared across the evaluation.
const (
	// Baseline is plain ECMP hashing with no coordination.
	Baseline ProviderKind = iota
	// C4PStatic is C4P global traffic engineering at connect time.
	C4PStatic
	// C4PDynamic adds master reallocation on failures and ACCL's
	// completion-time QP re-weighting (Fig 12b).
	C4PDynamic
)

// ParseProviderKind maps a policy name as the CLIs and session specs
// spell it — baseline | c4p | c4p-dynamic, empty meaning c4p — onto its
// kind.
func ParseProviderKind(s string) (ProviderKind, error) {
	switch s {
	case "", "c4p":
		return C4PStatic, nil
	case "baseline":
		return Baseline, nil
	case "c4p-dynamic":
		return C4PDynamic, nil
	}
	return 0, fmt.Errorf("unknown provider %q (want baseline | c4p | c4p-dynamic)", s)
}

func (p ProviderKind) String() string {
	switch p {
	case Baseline:
		return "baseline"
	case C4PStatic:
		return "c4p-gte"
	case C4PDynamic:
		return "c4p-dynamic"
	}
	return "unknown"
}

// On returns the policy's provider constructor, seeded for one run, for
// whichever topology the caller builds.
func (p ProviderKind) On(seed int64) func(*topo.Topology) accl.PathProvider {
	return func(t *topo.Topology) accl.PathProvider {
		switch p {
		case C4PStatic:
			return NewMaster(t, Static, sim.NewRand(seed))
		case C4PDynamic:
			return NewMaster(t, Dynamic, sim.NewRand(seed))
		default:
			return accl.NewECMPProvider(t, sim.NewRand(seed))
		}
	}
}

// Master is the C4P control plane. It is shared by all jobs in the cluster
// — the paper's key difference from the per-job C4D master.
type Master struct {
	Topo *topo.Topology
	Mode Mode
	// DisablePlaneRule drops the "forbid left→right" dual-port constraint
	// (ablation only): QPs may then descend onto either receive port, and
	// two of a bond's flows can converge on one port exactly like the
	// baseline in Fig 9.
	DisablePlaneRule bool

	rand *sim.Rand
	// load counts allocated QPs per fabric link (leaf-up and spine-down).
	load map[int]int
	// sportCache remembers which source port the prober found to steer a
	// given (src,dst,rail,plane,spine,dstPlane) route.
	sportCache map[routeKey]uint16

	allocs   int
	releases int
	repairs  int
}

type routeKey struct {
	src, dst, rail, plane, spine, dstPlane int
}

// NewMaster creates a C4P master for the fabric.
func NewMaster(t *topo.Topology, mode Mode, r *sim.Rand) *Master {
	if r == nil {
		r = sim.NewRand(3)
	}
	return &Master{
		Topo:       t,
		Mode:       mode,
		rand:       r,
		load:       make(map[int]int),
		sportCache: make(map[routeKey]uint16),
	}
}

// Stats reports allocation counters, for tests and dashboards.
func (m *Master) Stats() (allocs, releases, repairs int) {
	return m.allocs, m.releases, m.repairs
}

// LinkLoad reports the number of QPs currently allocated to a link.
func (m *Master) LinkLoad(l *topo.Link) int { return m.load[l.ID] }

// Connect implements accl.PathProvider: plane-balanced, least-loaded,
// healthy-only path allocation.
func (m *Master) Connect(req accl.ConnRequest) (*accl.Assignment, error) {
	// Dual-port balance: spread the connection's QPs across the two
	// physical ports, and forbid cross-plane descent (left stays left).
	plane := req.QPIndex % topo.Planes
	return m.allocate(req, plane)
}

// Repair implements accl.PathProvider.
func (m *Master) Repair(req accl.ConnRequest, old *accl.Assignment) (*accl.Assignment, error) {
	m.repairs++
	plane := req.QPIndex % topo.Planes
	if old != nil && old.Path != nil {
		plane = old.Path.SrcPort.Plane
	}
	m.Release(old)
	if m.Mode == Static {
		// No master involvement after start-up: the underlay rehashes
		// onto a random surviving link, exactly like the ECMP baseline.
		sport := uint16(m.rand.Intn(1 << 16))
		path, err := netsim.Route(m.Topo, req.SrcNode, req.DstNode, req.Rail, plane, sport)
		if err != nil {
			return nil, fmt.Errorf("c4p static repair: %w", err)
		}
		return &accl.Assignment{Path: path, Sport: sport}, nil
	}
	return m.allocate(req, plane)
}

// Adaptive implements accl.PathProvider: dynamic mode re-weights QPs by
// completion time, static mode keeps them at equal shares.
func (m *Master) Adaptive() bool { return m.Mode == Dynamic }

// Release implements accl.PathProvider.
func (m *Master) Release(as *accl.Assignment) {
	if as == nil {
		return
	}
	ids, ok := as.Token.([]int)
	if !ok {
		return // not master-tracked (e.g. a static-repair rehash)
	}
	m.releases++
	for _, id := range ids {
		if m.load[id] > 0 {
			m.load[id]--
		}
	}
	as.Token = nil
}

// allocate picks the least-loaded healthy spine for a same-plane route and
// registers the QP load.
func (m *Master) allocate(req accl.ConnRequest, plane int) (*accl.Assignment, error) {
	t := m.Topo
	if req.SrcNode < 0 || req.SrcNode >= t.Spec.Nodes ||
		req.DstNode < 0 || req.DstNode >= t.Spec.Nodes {
		return nil, fmt.Errorf("c4p: nodes %d->%d outside fabric of %d nodes",
			req.SrcNode, req.DstNode, t.Spec.Nodes)
	}
	if t.Group(req.SrcNode) == t.Group(req.DstNode) {
		path, err := t.PathFor(req.SrcNode, req.DstNode, req.Rail, plane, -1, plane)
		if err != nil {
			return nil, err
		}
		if !path.Up() {
			return nil, fmt.Errorf("c4p: same-leaf route for %d->%d is down", req.SrcNode, req.DstNode)
		}
		m.allocs++
		return &accl.Assignment{Path: path, Token: []int{}}, nil
	}

	dstPlane := plane
	if m.DisablePlaneRule {
		dstPlane = m.rand.Intn(topo.Planes)
	}
	srcLeaf := t.PortAt(req.SrcNode, req.Rail, plane).Leaf
	dstLeaf := t.LeafAt(req.Rail, dstPlane, t.Group(req.DstNode))
	type cand struct {
		spine int
		worst int
		sum   int
	}
	var best *cand
	for s := 0; s < t.Spec.Spines; s++ {
		up, down := srcLeaf.Ups[s], dstLeaf.Downs[s]
		if !up.Up() || !down.Up() {
			continue // erroneous-link elimination
		}
		lu, ld := m.load[up.ID], m.load[down.ID]
		c := cand{spine: s, worst: max(lu, ld), sum: lu + ld}
		if best == nil || c.worst < best.worst ||
			(c.worst == best.worst && c.sum < best.sum) {
			cc := c
			best = &cc
		}
	}
	if best == nil {
		return nil, fmt.Errorf("c4p: no healthy spine between %s and %s",
			srcLeaf.Name(), dstLeaf.Name())
	}
	path, err := t.PathFor(req.SrcNode, req.DstNode, req.Rail, plane, best.spine, dstPlane)
	if err != nil {
		return nil, err
	}
	sport := m.findSport(req.SrcNode, req.DstNode, req.Rail, plane, best.spine)
	m.load[srcLeaf.Ups[best.spine].ID]++
	m.load[dstLeaf.Downs[best.spine].ID]++
	m.allocs++
	return &accl.Assignment{
		Path:  path,
		Sport: sport,
		Token: []int{srcLeaf.Ups[best.spine].ID, dstLeaf.Downs[best.spine].ID},
	}, nil
}

// findSport searches for a source port whose ECMP hash steers the flow
// onto the chosen spine and plane — the paper's path-probing mechanism: by
// probing sports and observing routes, the master learns the inverse of the
// fabric's hash and can express any path decision as a sport choice.
func (m *Master) findSport(src, dst, rail, plane, spine int) uint16 {
	key := routeKey{src, dst, rail, plane, spine, plane}
	if sp, ok := m.sportCache[key]; ok {
		return sp
	}
	for sp := 0; sp < 1<<13; sp++ {
		path, err := netsim.Route(m.Topo, src, dst, rail, plane, uint16(sp))
		if err != nil {
			break
		}
		if path.Spine != nil && path.Spine.Index == spine && path.DstPort.Plane == plane {
			m.sportCache[key] = uint16(sp)
			return uint16(sp)
		}
	}
	// The fabric's hash never produced this combination within the search
	// budget (vanishingly rare with healthy links); the assignment still
	// pins the path explicitly, so return a sentinel sport.
	m.sportCache[key] = 0
	return 0
}

// ProbeReport summarizes a full-mesh path probe (start-up link screening).
type ProbeReport struct {
	Rail         int
	HealthyPaths int
	DeadLinks    []string
}

// Probe performs the start-up full-mesh probe for one rail: every
// (leaf, spine) link in both directions is exercised and dead links are
// cataloged so allocation avoids them.
func (m *Master) Probe(rail int) ProbeReport {
	rep := ProbeReport{Rail: rail}
	t := m.Topo
	groups := t.Spec.Groups()
	for p := 0; p < topo.Planes; p++ {
		for g := 0; g < groups; g++ {
			leaf := t.LeafAt(rail, p, g)
			for s := 0; s < t.Spec.Spines; s++ {
				if leaf.Ups[s].Up() {
					rep.HealthyPaths++
				} else {
					rep.DeadLinks = append(rep.DeadLinks, leaf.Ups[s].Name)
				}
				if leaf.Downs[s].Up() {
					rep.HealthyPaths++
				} else {
					rep.DeadLinks = append(rep.DeadLinks, leaf.Downs[s].Name)
				}
			}
		}
	}
	sort.Strings(rep.DeadLinks)
	return rep
}

// ProbeAll probes every rail and aggregates.
func (m *Master) ProbeAll() []ProbeReport {
	out := make([]ProbeReport, m.Topo.Spec.Rails)
	for r := range out {
		out[r] = m.Probe(r)
	}
	return out
}
