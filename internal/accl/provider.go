package accl

import (
	"fmt"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// ConnRequest asks a provider to route one QP.
type ConnRequest struct {
	Comm    int
	SrcNode int
	DstNode int
	Rail    int
	QPN     int
	QPIndex int // index of this QP within its connection
	QPCount int // QPs per connection
}

// PathProvider decides where each QP's traffic goes. The baseline is ECMP
// hashing (ECMPProvider); the C4P master implements the same interface with
// global traffic engineering.
type PathProvider interface {
	// Adaptive reports whether communicators re-weight this provider's QPs
	// by measured message-completion time (C4P dynamic load balance,
	// §III-B): each QP's share of a transfer then follows its path's
	// throughput. A communicator reads it once, when it opens.
	Adaptive() bool
	// Connect allocates a route for a new QP.
	Connect(req ConnRequest) (*Assignment, error)
	// Repair replaces a route whose path failed. old may be nil.
	Repair(req ConnRequest, old *Assignment) (*Assignment, error)
	// Release returns a route's resources.
	Release(as *Assignment)
}

// ECMPProvider models the baseline behaviour without C4P: the bonding
// driver spreads QPs across the two physical ports round-robin, the fabric
// hashes each QP's 5-tuple onto an uplink, and nothing coordinates across
// connections or jobs — so two QPs can land on the same spine uplink or
// converge onto one receive port (§II-D).
type ECMPProvider struct {
	Topo *topo.Topology
	Rand *sim.Rand
}

// NewECMPProvider builds the baseline provider.
func NewECMPProvider(t *topo.Topology, r *sim.Rand) *ECMPProvider {
	if r == nil {
		r = sim.NewRand(2)
	}
	return &ECMPProvider{Topo: t, Rand: r}
}

// Connect implements PathProvider using hash-based routing.
func (p *ECMPProvider) Connect(req ConnRequest) (*Assignment, error) {
	// Bonding driver: alternate tx ports across the connection's QPs.
	srcPlane := req.QPIndex % topo.Planes
	// The OS picks an ephemeral source port; the fabric hashes it.
	sport := uint16(p.Rand.Intn(1 << 16))
	path, err := netsim.Route(p.Topo, req.SrcNode, req.DstNode, req.Rail, srcPlane, sport)
	if err != nil {
		return nil, fmt.Errorf("ecmp connect: %w", err)
	}
	return &Assignment{Path: path, Sport: sport}, nil
}

// Repair implements PathProvider: the routing protocol withdraws the dead
// link and the flow rehashes onto a surviving ECMP member. No global
// coordination happens, so repaired flows can pile onto already-loaded
// links — the Fig 12a behaviour.
func (p *ECMPProvider) Repair(req ConnRequest, old *Assignment) (*Assignment, error) {
	srcPlane := req.QPIndex % topo.Planes
	if old != nil && old.Path != nil {
		srcPlane = old.Path.SrcPort.Plane
	}
	sport := uint16(p.Rand.Intn(1 << 16))
	path, err := netsim.Route(p.Topo, req.SrcNode, req.DstNode, req.Rail, srcPlane, sport)
	if err != nil {
		return nil, fmt.Errorf("ecmp repair: %w", err)
	}
	return &Assignment{Path: path, Sport: sport}, nil
}

// Release implements PathProvider; ECMP tracks no state.
func (p *ECMPProvider) Release(*Assignment) {}

// Adaptive implements PathProvider: hashed QPs keep equal shares.
func (p *ECMPProvider) Adaptive() bool { return false }
