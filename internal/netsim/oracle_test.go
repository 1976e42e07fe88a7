package netsim

import (
	"math"
	"slices"

	"c4/internal/sim"
)

// The per-flow reference kernel: progressive filling flow by flow over the
// dense link-ID space, from scratch on every recompute. It is the oracle
// the class kernel is proven against — a one-member class is a flow, so
// the two must agree bit for bit (rates, completion instants, CNP counts,
// fired events) on every workload the tests drive — and its work counters
// price what aggregation and event-local re-filling save. Tests install it
// with usePerFlow.
//
// Like the class kernel, it fills each link component in its own rounds:
// every round takes each component's bottleneck from that component's own
// links. Max-min fairness splits exactly over components, so this is the
// same allocation flat filling defines, except that flat filling freezes
// shares within rateEpsilon of the global bottleneck at it across
// components too.

// perFlowScratch is the oracle's private scratch: the flows crossing each
// link and a frozen flag per flow, both indexed by position in n.flows,
// plus each touched link's component representative and each
// representative's bottleneck share in the current round. Every walk of
// n.flows skips the nil holes removal leaves behind.
type perFlowScratch struct {
	onLink [][]int
	frozen []bool
	root   []int32
	best   []float64
}

// linkMarked reports whether markLink put link id in the region.
func (n *Network) linkMarked(id int) bool { return n.scMark[id>>6]&(1<<(id&63)) != 0 }

// usePerFlow swaps the per-flow oracle into n's recompute seam. Call it
// before the first flow is admitted.
func usePerFlow(n *Network) {
	nl := len(n.Topo.Links)
	o := &perFlowScratch{onLink: make([][]int, nl), root: make([]int32, nl), best: make([]float64, nl)}
	n.kernel = o.recomputePerFlow
}

// recomputePerFlow allocates rates flow by flow, reusing the network's
// slice-indexed scratch (scCap, scCount, the region's link bitset,
// union-find, the CNP pass) and its own per-link flow lists.
func (o *perFlowScratch) recomputePerFlow(n *Network) {
	n.scTouched = n.scTouched[:0]
	o.frozen = slices.Grow(o.frozen[:0], len(n.flows))[:len(n.flows)]
	unfrozen := 0
	for i, f := range n.flows {
		if f == nil {
			continue
		}
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
			if !n.markLink(l.ID) {
				n.scCap[l.ID] = l.Gbps * Gbps
				n.scCount[l.ID] = 0
				o.onLink[l.ID] = o.onLink[l.ID][:0]
				n.scTouched = append(n.scTouched, l.ID)
			}
			n.scCount[l.ID]++
			o.onLink[l.ID] = append(o.onLink[l.ID], i)
		}
	}

	// Link components: union the links of every alive flow.
	for _, id := range n.scTouched {
		n.ufParent[id] = int32(id)
	}
	for i, f := range n.flows {
		if f == nil || o.frozen[i] {
			continue
		}
		r := n.ufFind(int32(f.Path.Links[0].ID))
		for _, l := range f.Path.Links[1:] {
			if s := n.ufFind(int32(l.ID)); s != r {
				n.ufParent[s] = r
			}
		}
	}
	for _, id := range n.scTouched {
		o.root[id] = n.ufFind(int32(id))
	}

	// Bottleneck scanning visits links in ascending ID order by walking
	// the whole dense ID space and skipping untouched entries. Every
	// component takes its round's bottleneck from its own links.
	nl := len(n.scCap)
	for unfrozen > 0 {
		for _, id := range n.scTouched {
			o.best[o.root[id]] = math.Inf(1)
		}
		n.stats.LinkVisits += uint64(nl)
		for id := 0; id < nl; id++ {
			if !n.linkMarked(id) || n.scCount[id] <= 0 {
				continue
			}
			r := o.root[id]
			o.best[r] = min(o.best[r], n.scCap[id]/float64(n.scCount[id]))
		}
		// Freeze every unfrozen flow on links at their component's
		// bottleneck share.
		progressed := false
		n.stats.LinkVisits += uint64(nl)
		for id := 0; id < nl; id++ {
			if !n.linkMarked(id) || n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			best := o.best[o.root[id]]
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
	// every sender crossing them. The aggregate load per link is also the
	// utilization snapshot.
	clear(n.utilRate)
	for _, id := range n.scTouched {
		n.scLoadCnt[id] = 0
	}
	for _, f := range n.flows {
		if f == nil || f.rate <= 0 {
			continue
		}
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		for _, l := range f.Path.Links {
			n.utilRate[l.ID] += f.rate
			n.scLoadCnt[l.ID]++
		}
	}
	n.stats.LinkVisits += uint64(len(n.scTouched))
	for _, id := range n.scTouched {
		n.scFactor[id] = 0
		capBits := n.linkCap(id)
		if n.scLoadCnt[id] >= 2 && capBits > 0 && n.utilRate[id] >= capBits*(1-1e-6) {
			n.scFactor[id] = float64(n.scLoadCnt[id]-1) / float64(n.scLoadCnt[id])
		}
	}
	for _, f := range n.flows {
		if f == nil {
			continue
		}
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
	for _, id := range n.scTouched {
		n.scFactor[id] = 0
	}
	clear(n.scMark)

	// The next completion is the earliest ETA across all moving flows,
	// rounded up by 1 ns exactly like the class kernel's.
	minEta := sim.MaxTime
	horizon := sim.MaxTime - n.Engine.Now()
	for _, f := range n.flows {
		if f == nil {
			continue
		}
		n.stats.FlowVisits++
		if f.goodRate > 0 {
			minEta = min(minEta, completionDelay(f.remaining, f.goodRate, horizon))
		}
	}
	n.rearmCompletion(minEta)
}
