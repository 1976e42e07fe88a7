package netsim

import (
	"math"
	"math/bits"

	"c4/internal/sim"
)

// Link components. Max-min filling decomposes exactly along the connected
// components of the bipartite class/link graph: a bottleneck round in one
// component never reads or writes capacity in another, so each component
// fills in its own rounds, with its own smallest share as each round's
// bottleneck, and its result depends on nothing outside it. That makes
// components the kernel's unit of reuse.
//
// Components persist between recomputes. A recompute dissolves only the
// region its changes reach (recomputeClasses), re-partitions that region's
// links with union-find over the region alone — which handles merges, a
// new class bridging two components, and splits, a retired class leaving
// one — and fills the new components one after another. Every other
// component keeps its rates, CNP rates, goodput and link utilization.
//
// Components generalize "per plane": leaf-up/spine-down links are per
// (plane, leaf, spine), so plane- and gang-partitioned traffic falls apart
// into many components naturally — but a node's NVLink injection/delivery
// links sit on every path the node originates or terminates, coupling its
// planes, and only component analysis handles that soundly. When the
// whole fabric is one traffic web there is one component and the kernel
// degrades to a full re-fill, never to a wrong answer.

// component is one independent filling problem: a set of links no class
// crosses out of, and the classes confined to it.
type component struct {
	links   []int // dense link IDs, ascending
	classes []*flowClass

	// stale marks a component the current recompute dissolves and
	// re-partitions.
	stale bool

	// Filling state: unfrozen members left and the smallest share on the
	// component's links as of its last round, the next round's bottleneck.
	unfrozen int
	share    float64
}

// markLink adds link id to the region being re-filled and reports
// whether it was already there.
func (n *Network) markLink(id int) bool {
	w, bit := id>>6, uint64(1)<<(id&63)
	was := n.scMark[w]&bit != 0
	n.scMark[w] |= bit
	return was
}

// partition groups the region's links into connected components via
// union-find over the region's classes, records each link's and class's
// new component, appends the new components to n.comps and returns them.
// It reads the region's links from the bitset markLink set, walking the
// set bits word by word and clearing them as it goes, so scTouched comes
// out in ascending ID order without a sort. Component identity and
// internal ordering are deterministic: the representative is the smallest
// link ID, so walking the region's links in ascending order meets each
// representative first; links are listed ascending, and classes keep
// n.classes order (the order of n.region).
func (n *Network) partition() []*component {
	n.scTouched = n.scTouched[:0]
	for w, word := range n.scMark {
		if word == 0 {
			continue
		}
		n.scMark[w] = 0
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			n.scTouched = append(n.scTouched, id)
			n.ufParent[id] = int32(id)
		}
	}
	for _, fc := range n.region {
		r := n.ufFind(int32(fc.links[0].ID))
		for _, l := range fc.links[1:] {
			s := n.ufFind(int32(l.ID))
			if s == r {
				continue
			}
			if s < r {
				r, s = s, r
			}
			n.ufParent[s] = r
		}
	}

	kept := len(n.comps)
	for _, id := range n.scTouched {
		root := int(n.ufFind(int32(id)))
		if root == id {
			n.comps = append(n.comps, n.newComponent())
			n.linkComp[id] = n.comps[len(n.comps)-1]
		}
		c := n.linkComp[root]
		n.linkComp[id] = c
		c.links = append(c.links, id)
	}
	for _, fc := range n.region {
		c := n.linkComp[fc.links[0].ID]
		c.classes = append(c.classes, fc)
		fc.comp = c
	}
	return n.comps[kept:]
}

// newComponent takes an empty component from the free list, keeping its
// slices' capacity, or allocates one.
func (n *Network) newComponent() *component {
	k := len(n.compFree)
	if k == 0 {
		return &component{}
	}
	c := n.compFree[k-1]
	n.compFree = n.compFree[:k-1]
	return c
}

// dissolve releases the stale components: their links lose their owner
// and utilization, their classes lose their component and are marked to
// re-fill, and the components return to the free list.
func (n *Network) dissolve() {
	live := n.comps[:0]
	for _, c := range n.comps {
		if !c.stale {
			live = append(live, c)
			continue
		}
		for _, id := range c.links {
			n.linkComp[id] = nil
			n.utilRate[id] = 0
		}
		for _, fc := range c.classes {
			fc.comp = nil
			fc.refill = true
		}
		clear(c.classes)
		c.links, c.classes = c.links[:0], c.classes[:0]
		c.stale = false
		n.compFree = append(n.compFree, c)
	}
	clear(n.comps[len(live):])
	n.comps = live
}

// ufFind resolves a link's component representative with path halving.
func (n *Network) ufFind(x int32) int32 {
	for n.ufParent[x] != x {
		n.ufParent[x] = n.ufParent[n.ufParent[x]]
		x = n.ufParent[x]
	}
	return x
}

// fillComponent runs progressive filling on c in its own rounds, then its
// CNP and ETA passes, and returns the earliest completion ETA among c's
// classes.
func (n *Network) fillComponent(c *component) sim.Time {
	c.unfrozen = 0
	for _, fc := range c.classes {
		c.unfrozen += len(fc.members)
	}
	n.scanComponent(c)
	for c.unfrozen > 0 && !math.IsInf(c.share, 1) {
		if !n.freezeComponent(c) {
			break
		}
	}
	return n.finishComponent(c)
}
