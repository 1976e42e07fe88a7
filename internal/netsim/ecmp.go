package netsim

import (
	"fmt"
	"hash/fnv"

	"c4/internal/topo"
)

// Route resolves the fabric's ECMP forwarding decision for a connection
// identified by its endpoints and UDP source port, mirroring how RoCE
// fabrics hash the 5-tuple. The mapping is deterministic in sport, which is
// exactly the property C4P's path probing exploits: by trying source ports
// and observing the route each one takes, the master can steer any QP onto
// any healthy (spine, destination-plane) combination.
//
// Forwarding rules:
//   - same leaf group and the source plane's leaf also serves the
//     destination: deliver directly (no spine hop);
//   - otherwise hash over the source leaf's *healthy* uplinks to pick a
//     spine, then hash over that spine's healthy downlinks toward the
//     destination node's two planes to pick the receive port.
//
// Routing around failed links models the underlay's routing protocol
// withdrawing dead links from the ECMP group. If no healthy route exists,
// Route returns an error.
func Route(t *topo.Topology, srcNode, dstNode, rail, srcPlane int, sport uint16) (*topo.Path, error) {
	if srcNode == dstNode {
		return nil, fmt.Errorf("netsim: route from node %d to itself", srcNode)
	}
	src := t.PortAt(srcNode, rail, srcPlane)
	if t.Group(srcNode) == t.Group(dstNode) {
		// The same-plane leaf serves both nodes: direct delivery.
		return t.PathFor(srcNode, dstNode, rail, srcPlane, -1, srcPlane)
	}

	// Stage 1: leaf picks a healthy uplink (spine). Both stages count the
	// healthy candidates, then walk to the hashed one: no candidate list.
	healthy := 0
	for _, up := range src.Leaf.Ups {
		if up.Up() {
			healthy++
		}
	}
	if healthy == 0 {
		return nil, fmt.Errorf("netsim: leaf %s has no healthy uplinks", src.Leaf.Name())
	}
	k := int(hash5(srcNode, dstNode, rail, srcPlane, int(sport), 1) % uint64(healthy))
	spine := -1
	for s, up := range src.Leaf.Ups {
		if up.Up() {
			if k == 0 {
				spine = s
				break
			}
			k--
		}
	}

	// Stage 2: spine picks a healthy downlink toward one of the
	// destination node's two planes.
	dstGroup := t.Group(dstNode)
	planeUp := func(q int) bool {
		return t.LeafAt(rail, q, dstGroup).Downs[spine].Up() && t.PortAt(dstNode, rail, q).Down.Up()
	}
	healthy = 0
	for q := 0; q < topo.Planes; q++ {
		if planeUp(q) {
			healthy++
		}
	}
	if healthy == 0 {
		return nil, fmt.Errorf("netsim: spine %d has no healthy downlink to node %d", spine, dstNode)
	}
	k = int(hash5(srcNode, dstNode, rail, srcPlane, int(sport), 2) % uint64(healthy))
	dstPlane := -1
	for q := 0; q < topo.Planes; q++ {
		if planeUp(q) {
			if k == 0 {
				dstPlane = q
				break
			}
			k--
		}
	}
	return t.PathFor(srcNode, dstNode, rail, srcPlane, spine, dstPlane)
}

// hash5 is a deterministic FNV-1a hash over the flow identity plus a salt
// distinguishing the two ECMP decision stages. The salt is mixed in first:
// placed last, the two stages' hashes would differ only by a final
// sport-independent transformation and their low bits would be perfectly
// correlated, collapsing the reachable (spine, plane) combinations.
func hash5(a, b, c, d, e, salt int) uint64 {
	h := fnv.New64a()
	var buf [48]byte
	put := func(i int, v int) {
		for k := 0; k < 8; k++ {
			buf[i*8+k] = byte(v >> (8 * k))
		}
	}
	put(0, salt)
	put(1, a)
	put(2, b)
	put(3, c)
	put(4, d)
	put(5, e)
	h.Write(buf[:])
	// FNV-1a's low bit is linear in the input bits (multiplying by an odd
	// prime preserves bit 0), so taking the sum modulo a small ECMP group
	// size directly would make the two decision stages perfectly
	// correlated. A murmur3-style finalizer avalanches the state first.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
