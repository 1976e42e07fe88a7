package netsim

import (
	"math"
	"slices"

	"c4/internal/sim"
)

// The per-flow reference kernel: progressive filling flow by flow over the
// dense link-ID space. It is the oracle the class kernel is proven
// against — a one-member class is a flow, so the two must agree bit for
// bit (rates, completion instants, CNP counts, fired events) on every
// workload the tests drive — and its work counters price what aggregation
// saves. Tests install it with usePerFlow.

// perFlowScratch is the oracle's private scratch: the flows crossing each
// link and a frozen flag per flow, both indexed by position in n.flows.
type perFlowScratch struct {
	onLink [][]int
	frozen []bool
}

// usePerFlow swaps the per-flow oracle into n's recompute seam. Call it
// before the first flow is admitted.
func usePerFlow(n *Network) {
	o := &perFlowScratch{onLink: make([][]int, len(n.Topo.Links))}
	n.kernel = o.recomputePerFlow
}

// recomputePerFlow allocates rates flow by flow, reusing the network's
// slice-indexed scratch (scCap, scCount, scSeen, the CNP pass) and its
// own per-link flow lists.
func (o *perFlowScratch) recomputePerFlow(n *Network) {
	n.scTouched = n.scTouched[:0]
	o.frozen = slices.Grow(o.frozen[:0], len(n.flows))[:len(n.flows)]
	unfrozen := 0
	for i, f := range n.flows {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		f.rate = 0
		alive := true
		for _, l := range f.Path.Links {
			if !l.Up() {
				alive = false
				break
			}
		}
		o.frozen[i] = !alive // a dead path stalls the flow at rate 0
		if !alive {
			continue
		}
		unfrozen++
		for _, l := range f.Path.Links {
			if !n.scSeen[l.ID] {
				n.scSeen[l.ID] = true
				n.scCap[l.ID] = l.Gbps * Gbps
				n.scCount[l.ID] = 0
				o.onLink[l.ID] = o.onLink[l.ID][:0]
				n.scTouched = append(n.scTouched, l.ID)
			}
			n.scCount[l.ID]++
			o.onLink[l.ID] = append(o.onLink[l.ID], i)
		}
	}

	// Bottleneck scanning visits links in ascending ID order by walking
	// the whole dense ID space and skipping untouched entries.
	nl := len(n.scSeen)
	for unfrozen > 0 {
		best := math.Inf(1)
		n.stats.LinkVisits += uint64(nl)
		for id := 0; id < nl; id++ {
			if !n.scSeen[id] || n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			if share < best {
				best = share
			}
		}
		if math.IsInf(best, 1) {
			break // remaining flows cross no capacity-bearing links
		}
		// Freeze every unfrozen flow on links at the bottleneck share.
		progressed := false
		n.stats.LinkVisits += uint64(nl)
		for id := 0; id < nl; id++ {
			if !n.scSeen[id] || n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			if share > best*(1+rateEpsilon) {
				continue
			}
			for _, i := range o.onLink[id] {
				if o.frozen[i] {
					continue
				}
				f := n.flows[i]
				n.stats.FlowVisits++
				n.stats.LinkVisits += uint64(len(f.Path.Links))
				f.rate = best
				o.frozen[i] = true
				unfrozen--
				progressed = true
				for _, l := range f.Path.Links {
					n.scCap[l.ID] -= best
					if n.scCap[l.ID] < 0 {
						n.scCap[l.ID] = 0
					}
					n.scCount[l.ID]--
				}
			}
		}
		if !progressed {
			break
		}
	}

	// CNP rates: saturated links with contention emit notifications toward
	// every sender crossing them.
	for _, id := range n.scTouched {
		n.scLoad[id] = 0
		n.scLoadCnt[id] = 0
	}
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		for _, l := range f.Path.Links {
			n.scLoad[l.ID] += f.rate
			n.scLoadCnt[l.ID]++
		}
	}
	n.stats.LinkVisits += uint64(len(n.scTouched))
	for _, id := range n.scTouched {
		n.scFactor[id] = 0
		capBits := n.linkCap(id)
		if n.scLoadCnt[id] >= 2 && capBits > 0 && n.scLoad[id] >= capBits*(1-1e-6) {
			n.scFactor[id] = float64(n.scLoadCnt[id]-1) / float64(n.scLoadCnt[id])
		}
	}
	for _, f := range n.flows {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		f.cnpRate = 0
		loss := 1.0
		for _, l := range f.Path.Links {
			if factor := n.scFactor[l.ID]; factor > 0 {
				f.cnpRate += n.Cfg.CNPPerSecond * factor
			}
			if fr := n.lossFrac[l.ID]; fr > 0 {
				loss *= 1 - fr
			}
		}
		f.goodRate = f.rate * loss
	}
	n.snapshotUtil()
	for _, id := range n.scTouched {
		n.scSeen[id] = false
		n.scFactor[id] = 0
	}

	// The next completion is the earliest ETA across all moving flows,
	// rounded up by 1 ns exactly like the class kernel's.
	minEta := sim.MaxTime
	for _, f := range n.flows {
		n.stats.FlowVisits++
		if f.goodRate <= 0 {
			continue
		}
		eta := sim.FromSeconds(f.remaining/f.goodRate) + 1
		if eta < 1 {
			eta = 1
		}
		if eta < minEta {
			minEta = eta
		}
	}
	n.rearmCompletion(minEta)
}
