package netsim

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"c4/internal/sim"
)

// Per-plane parallel settle. Max-min filling decomposes along the connected
// components of the bipartite class/link graph: a bottleneck round in one
// component never reads or writes capacity in another, so the components
// can fill on separate goroutines and merge deterministically. Only the
// rounds stay global: shares within rateEpsilon of the smallest one freeze
// at that smallest share wherever they sit, so every component takes each
// round's bottleneck from all of them (settleComponents).
// Components generalize "per plane": leaf-up/spine-down links are per
// (plane, leaf, spine), so plane- and gang-partitioned traffic falls apart
// into many components naturally — but a node's NVLink injection/delivery
// links sit on every path the node originates or terminates, coupling its
// planes, and only component analysis handles that soundly. When the
// whole fabric is one traffic web there is one component and the kernel
// degrades to the serial order, never to a wrong answer.

// component is one independent filling problem: a set of links no class
// crosses out of, and the classes confined to it.
type component struct {
	links   []int // dense link IDs, ascending
	classes []*flowClass

	// Filling state: unfrozen members left, the smallest share on the
	// component's links as of its last round, the bottleneck share of the
	// round it takes part in, and whether that round froze anything.
	unfrozen   int
	share      float64
	best       float64
	progressed bool

	// Per-component outputs, folded into Network state serially after the
	// parallel phase so worker goroutines never share scratch.
	eta        sim.Time
	linkVisits uint64
	flowVisits uint64
}

// partition groups the touched links into connected components via
// union-find, attaching each alive class to the component of its links.
// Component identity and internal ordering are deterministic: the
// representative is the smallest link ID, components are numbered in
// ascending-representative order, links are listed ascending, and classes
// keep n.classes order. Ascending order comes from walking the dense
// link-ID space (scSeen), which costs less than sorting the touched list
// on every recompute.
func (n *Network) partition() []*component {
	for _, id := range n.scTouched {
		n.ufParent[id] = int32(id)
		n.compSlot[id] = -1
	}
	for _, fc := range n.classes {
		if !fc.alive {
			continue
		}
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

	comps := n.compPool[:0]
	for id, seen := range n.scSeen {
		if !seen {
			continue
		}
		root := n.ufFind(int32(id))
		slot := n.compSlot[root]
		if slot < 0 {
			slot = int32(len(comps))
			n.compSlot[root] = slot
			if len(comps) < cap(comps) {
				// Recycle the pooled component and its slice capacity.
				comps = comps[:len(comps)+1]
				if c := comps[slot]; c != nil {
					c.links = c.links[:0]
					c.classes = c.classes[:0]
					c.eta = 0
					c.linkVisits, c.flowVisits = 0, 0
				} else {
					comps[slot] = &component{}
				}
			} else {
				comps = append(comps, &component{})
			}
		}
		c := comps[slot]
		c.links = append(c.links, id)
	}
	for _, fc := range n.classes {
		if !fc.alive {
			continue
		}
		slot := n.compSlot[n.ufFind(int32(fc.links[0].ID))]
		comps[slot].classes = append(comps[slot].classes, fc)
	}
	n.compPool = comps
	return comps
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

// settleComponents fills every component and returns the earliest
// completion ETA across all of them. Filling runs in global rounds, like
// the per-flow oracle's: each round's bottleneck is the smallest share in
// any component (a component's smallest share changes only in rounds it
// takes part in, so it is rescanned only then), and every component with a
// share within rateEpsilon of it freezes at it. The per-component passes
// run through eachComponent; outputs merge in component order, so a
// parallel run is byte-identical to the serial one — the property the
// replay tests and the -race CI lane pin down.
func (n *Network) settleComponents(comps []*component) sim.Time {
	n.lastComps = len(comps)
	n.eachComponent(comps, (*Network).startComponent)
	for {
		best := math.Inf(1)
		for _, c := range comps {
			if c.unfrozen > 0 && c.share < best {
				best = c.share
			}
		}
		if math.IsInf(best, 1) {
			break // remaining classes cross no capacity-bearing links
		}
		round := n.round[:0]
		for _, c := range comps {
			if c.unfrozen > 0 && c.share <= best*(1+rateEpsilon) {
				c.best = best
				round = append(round, c)
			}
		}
		n.round = round
		n.eachComponent(round, (*Network).freezeComponent)
		if !slices.ContainsFunc(round, func(c *component) bool { return c.progressed }) {
			break
		}
	}
	n.eachComponent(comps, (*Network).finishComponent)
	minEta := sim.MaxTime
	for _, c := range comps {
		n.stats.LinkVisits += c.linkVisits
		n.stats.FlowVisits += c.flowVisits
		if c.eta < minEta {
			minEta = c.eta
		}
	}
	return minEta
}

// eachComponent runs pass over comps. With SettleWorkers > 1 they run on a
// bounded goroutine pool; each worker takes a static stride so no channel
// or lock sits on the hot path, and because components are
// memory-disjoint the schedule cannot affect the results.
func (n *Network) eachComponent(comps []*component, pass func(*Network, *component)) {
	workers := min(n.Cfg.SettleWorkers, len(comps))
	if workers <= 1 {
		for _, c := range comps {
			pass(n, c)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(comps); i += workers {
				pass(n, comps[i])
			}
		}(w)
	}
	wg.Wait()
}
