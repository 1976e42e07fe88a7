package netsim

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"c4/internal/sim"
)

// Link components. Max-min filling decomposes exactly along the connected
// components of the bipartite class/link graph: a bottleneck round in one
// component never reads or writes capacity in another, so each component
// fills in its own rounds, with its own smallest share as each round's
// bottleneck, and its result depends on nothing outside it. That makes
// components the kernel's unit of both parallelism and reuse.
//
// Components persist between recomputes. A recompute dissolves only the
// region its changes reach (recomputeClasses), re-partitions that region's
// links with union-find over the region alone — which handles merges, a
// new class bridging two components, and splits, a retired class leaving
// one — and fills the new components, serially or on a bounded worker pool
// with one fork-join per recompute. Every other component keeps its rates,
// CNP rates, goodput and link utilization.
//
// Components generalize "per plane": leaf-up/spine-down links are per
// (plane, leaf, spine), so plane- and gang-partitioned traffic falls apart
// into many components naturally — but a node's NVLink injection/delivery
// links sit on every path the node originates or terminates, coupling its
// planes, and only component analysis handles that soundly. When the
// whole fabric is one traffic web there is one component and the kernel
// degrades to a full serial re-fill, never to a wrong answer.

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

	// Per-component outputs, folded into Network state serially after the
	// fill so worker goroutines never share scratch.
	eta        sim.Time
	linkVisits uint64
	flowVisits uint64
}

// partition groups the region's links (scTouched) into connected
// components via union-find over the region's classes, records each link's
// and class's new component, appends the new components to n.comps and
// returns them. Component
// identity and internal ordering are deterministic: the representative is
// the smallest link ID, so walking the region's links in ascending order
// meets each representative first; links are listed ascending, and classes
// keep n.classes order (the order of n.region).
func (n *Network) partition() []*component {
	for _, id := range n.scTouched {
		n.ufParent[id] = int32(id)
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

	slices.Sort(n.scTouched)
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

// forcedWorkers, when nonzero, overrides Config.SettleWorkers in New. It
// exists for the deterministic-replay tests, which rerun whole scenario
// families — code that builds its own Network internally — on a settle
// worker pool and compare them byte for byte against their goldens.
var forcedWorkers atomic.Int64

// ForceSettleWorkers sets the parallel settle width of every Network
// created until the returned restore function is called (<= 1 means
// serial). It is test plumbing, not API: production callers choose the
// width per Network via Config.SettleWorkers.
func ForceSettleWorkers(workers int) (restore func()) {
	prev := forcedWorkers.Swap(int64(max(workers, 1)))
	return func() { forcedWorkers.Store(prev) }
}

// fillComponents fills every new component and returns the earliest
// completion ETA among their classes. Each component runs start, rounds
// and finish in one pass, so with SettleWorkers > 1 a recompute is one
// fork-join over a bounded goroutine pool; each worker takes a static
// stride so no channel or lock sits on the hot path, and because
// components are memory-disjoint the schedule cannot affect the results.
// Outputs merge in component order, so a parallel run is byte-identical to
// the serial one — the property the replay tests and the -race CI lane pin
// down.
func (n *Network) fillComponents(fresh []*component) sim.Time {
	if workers := min(n.Cfg.SettleWorkers, len(fresh)); workers <= 1 {
		for _, c := range fresh {
			n.fillComponent(c)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(fresh); i += workers {
					n.fillComponent(fresh[i])
				}
			}(w)
		}
		wg.Wait()
	}
	minEta := sim.MaxTime
	for _, c := range fresh {
		n.stats.LinkVisits += c.linkVisits
		n.stats.FlowVisits += c.flowVisits
		c.linkVisits, c.flowVisits = 0, 0
		minEta = min(minEta, c.eta)
	}
	return minEta
}

// fillComponent runs progressive filling on c in its own rounds, then its
// CNP and ETA passes. Like every per-component pass it may run on a worker
// goroutine.
func (n *Network) fillComponent(c *component) {
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
	n.finishComponent(c)
}
