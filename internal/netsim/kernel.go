package netsim

import (
	"math"

	"c4/internal/sim"
)

// This file holds the rate kernel: max-min fair allocation by progressive
// filling over flow classes (class.go), one filling problem per link
// component (component.go), re-filled only where the flow set changed. The
// package's tests prove it against a per-flow oracle (oracle_test.go): the
// two must agree bit for bit on every workload.

// KernelStats counts deterministic units of algorithmic work performed by
// rate recomputation. LinkVisits counts per-link steps (bottleneck scans,
// capacity updates, CNP bookkeeping); FlowVisits counts per-class steps —
// the quantity flow-class aggregation shrinks from O(members) to
// O(classes). Marking, dissolving and partitioning the re-filled region
// is bookkeeping and counts in neither. The counters are pure step counts,
// no wall-clock, so they are byte-for-byte reproducible across runs and
// safe to track in bench baselines.
type KernelStats struct {
	Recomputes uint64
	LinkVisits uint64
	FlowVisits uint64
}

// recomputeClasses is the rate kernel. It re-fills only the region the
// changes since the last recompute reach: every component that holds a
// marked class (one whose membership changed, see class.go) or owns one of
// a marked class's links — or every component, after a link's capacity,
// loss or health changed. It dissolves that region, walks n.classes once
// — a region class registers its links, any other class re-derives its
// completion ETA from its cached least-remaining member — partitions the
// region into new components (component.go) and fills them. The result
// depends only on the current flow set, exactly as if every component
// were re-filled from scratch: a component whose classes, member counts
// and links did not change would fill to the same bits.
func (n *Network) recomputeClasses() {
	if n.linksChanged {
		for _, c := range n.comps {
			c.stale = true
		}
	} else {
		for _, fc := range n.marked {
			if fc.comp != nil {
				fc.comp.stale = true
			}
			for _, l := range fc.links {
				if c := n.linkComp[l.ID]; c != nil {
					c.stale = true
				}
			}
		}
	}
	n.dissolve()

	n.region = n.region[:0]
	minEta := sim.MaxTime
	horizon := sim.MaxTime - n.Engine.Now()
	for _, fc := range n.classes {
		n.stats.FlowVisits++
		if !fc.refill && !n.linksChanged {
			// Unchanged since its last fill: the members still hold their
			// rate, CNP rate and goodput, and the cached least member
			// answers for the class's first completion.
			if l := fc.least; l.goodRate > 0 {
				minEta = min(minEta, completionDelay(l.remaining, l.goodRate, horizon))
			}
			continue
		}
		fc.refill = false
		n.stats.LinkVisits += uint64(len(fc.links))
		alive := true
		for _, l := range fc.links {
			if !l.Up() {
				alive = false
				break
			}
		}
		if !alive {
			// Stalled at rate 0 on a dead path: no capacity, no CNPs, no
			// goodput until the path heals.
			fc.frozen = true
			fc.rate = 0
			fc.fanOut(0, 0, 0)
			continue
		}
		fc.frozen = false
		n.region = append(n.region, fc)
		m := len(fc.members)
		for _, l := range fc.links {
			id := l.ID
			if !n.markLink(id) {
				n.scCap[id] = l.Gbps * Gbps
				n.scCount[id] = 0
				n.scClasses[id] = n.scClasses[id][:0]
			}
			n.scCount[id] += m
			n.scClasses[id] = append(n.scClasses[id], fc)
		}
	}
	for _, fc := range n.marked {
		fc.refill = false // a retired class is not in n.classes
	}
	clear(n.marked)
	n.marked = n.marked[:0]
	n.linksChanged = false

	for _, c := range n.partition() {
		minEta = min(minEta, n.fillComponent(c))
	}
	n.rearmCompletion(minEta)
}

// scanComponent finds the smallest fair share on c's links: what is left of
// a link's capacity split evenly over the unfrozen members crossing it.
func (n *Network) scanComponent(c *component) {
	c.share = math.Inf(1)
	n.stats.LinkVisits += uint64(len(c.links))
	for _, id := range c.links {
		if n.scCount[id] <= 0 {
			continue
		}
		if share := n.scCap[id] / float64(n.scCount[id]); share < c.share {
			c.share = share
		}
	}
}

// freezeComponent runs one filling round on c: every unfrozen class on a
// link whose share is within rateEpsilon of the round's bottleneck share
// c.share freezes at exactly that share, and c is rescanned for the next
// round. It reports whether anything froze. The inner per-member
// subtraction loop is deliberately NOT fused into one multiply: the
// per-flow oracle subtracts the bottleneck share once per flow with a
// clamp at zero, and only the same sequence of operations reproduces its
// floating-point results exactly.
func (n *Network) freezeComponent(c *component) bool {
	best := c.share
	progressed := false
	n.stats.LinkVisits += uint64(len(c.links))
	for _, id := range c.links {
		if n.scCount[id] <= 0 {
			continue
		}
		share := n.scCap[id] / float64(n.scCount[id])
		if share > best*(1+rateEpsilon) {
			continue
		}
		for _, fc := range n.scClasses[id] {
			if fc.frozen {
				continue
			}
			n.stats.FlowVisits++
			n.stats.LinkVisits += uint64(len(fc.links))
			fc.rate = best
			fc.frozen = true
			m := len(fc.members)
			c.unfrozen -= m
			progressed = true
			for _, l := range fc.links {
				capLeft := n.scCap[l.ID]
				for k := 0; k < m; k++ {
					capLeft -= best
					if capLeft < 0 {
						capLeft = 0
					}
				}
				n.scCap[l.ID] = capLeft
				n.scCount[l.ID] -= m
			}
		}
	}
	if c.unfrozen > 0 {
		n.scanComponent(c)
	}
	return progressed
}

// finishComponent runs the CNP and ETA passes over a filled component,
// leaves each of its links' aggregate allocated rate in n.utilRate, the
// snapshot Utilization serves, and returns the earliest completion ETA
// among its classes. Both passes cost O(classes): per class and link, not
// per member.
func (n *Network) finishComponent(c *component) sim.Time {
	// CNP pass, class-wise: saturated links with contention emit
	// notifications toward every sender crossing them. A single flow at
	// line rate builds no queue in the fluid model, so saturation requires
	// >= 2 competing flows. A class adds m times its rate in one multiply;
	// that differs from the per-flow oracle's flow-by-flow sum only in the
	// last bits, far inside the saturation threshold's 1e-6 relative slack.
	for _, id := range c.links {
		n.utilRate[id] = 0
		n.scLoadCnt[id] = 0
	}
	for _, fc := range c.classes {
		if fc.rate <= 0 {
			continue
		}
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(fc.links))
		m := len(fc.members)
		load := float64(m) * fc.rate
		for _, l := range fc.links {
			n.utilRate[l.ID] += load
			n.scLoadCnt[l.ID] += m
		}
	}
	n.stats.LinkVisits += uint64(len(c.links))
	for _, id := range c.links {
		n.scFactor[id] = 0
		capBits := n.linkCap(id)
		if n.scLoadCnt[id] >= 2 && capBits > 0 && n.utilRate[id] >= capBits*(1-1e-6) {
			n.scFactor[id] = float64(n.scLoadCnt[id]-1) / float64(n.scLoadCnt[id])
		}
	}

	// Fan the class results out to the members and find the component's
	// earliest completion ETA. Members share rate, CNP rate, and goodput;
	// only remaining bits differ, and min(remaining)/goodRate is the
	// member-wise ETA's minimum. fanOut touches the members only when the
	// class changed, so a class the wave left alone costs O(1).
	eta := sim.MaxTime
	horizon := sim.MaxTime - n.Engine.Now()
	for _, fc := range c.classes {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(fc.links))
		cnp := 0.0
		loss := 1.0
		for _, l := range fc.links {
			if factor := n.scFactor[l.ID]; factor > 0 {
				cnp += CNPPerSecond * factor
			}
			if fr := n.lossFrac[l.ID]; fr > 0 {
				loss *= 1 - fr
			}
		}
		good := fc.rate * loss
		minRem := fc.fanOut(fc.rate, cnp, good)
		if good > 0 {
			eta = min(eta, completionDelay(minRem, good, horizon))
		}
	}
	return eta
}

// completionDelay is the completion event's delay for rem bits draining at
// good bits per second, rounded up by 1 ns: FromSeconds truncates, and an
// ETA that lands a sub-nanosecond early would re-fire at the same instant
// with zero progress. Overshoot is harmless — settle clamps delivery to
// the remaining bits. A delay at or beyond horizon, the time left before
// sim.MaxTime, is no completion at all and comes back as sim.MaxTime:
// converted, it would wrap negative (past ~292 years of drain time) and
// re-arm the completion event every nanosecond.
func completionDelay(rem, good float64, horizon sim.Time) sim.Time {
	s := rem / good
	if s*float64(sim.Second) < float64(horizon) {
		if eta := sim.FromSeconds(s) + 1; eta < horizon {
			return eta
		}
	}
	return sim.MaxTime
}

// rearmCompletion points the network's single completion event at minEta
// from now, or cancels it when minEta reaches sim.MaxTime from now (no
// completion; the sum would wrap). The network owns the event and re-arms
// it in place (Engine.Arm): recompute runs on every flow-set change, and
// cancelling and recreating the event each time would leave one dead event
// in the engine heap per run — a reroute-heavy run would accumulate them
// faster than pops drain them.
func (n *Network) rearmCompletion(minEta sim.Time) {
	if minEta >= sim.MaxTime-n.Engine.Now() {
		n.completeEv.Cancel()
		return
	}
	n.Engine.Arm(n.completeEv, n.Engine.Now()+minEta)
}
