package netsim

import (
	"math"

	"c4/internal/sim"
)

// This file holds the rate kernel: max-min fair allocation by progressive
// filling over flow classes (class.go), one filling problem per link
// component (parallel.go). The package's tests prove it against a
// per-flow oracle (oracle_test.go): the two must agree bit for bit on
// every workload.

// KernelStats counts deterministic units of algorithmic work performed by
// rate recomputation. LinkVisits counts per-link steps (bottleneck scans,
// capacity updates, CNP bookkeeping); FlowVisits counts per-class steps —
// the quantity flow-class aggregation shrinks from O(members) to
// O(classes). Picking each filling round's bottleneck from the components'
// cached smallest shares is a per-component step and counts in neither.
// The counters are pure step counts, no wall-clock, so they are
// byte-for-byte reproducible across runs and safe to track in bench
// baselines.
type KernelStats struct {
	Recomputes uint64
	LinkVisits uint64
	FlowVisits uint64
}

// recomputeClasses is the rate kernel: classes register their links once,
// the touched links are partitioned into connected components
// (parallel.go), and the components run progressive filling, the CNP pass,
// and the ETA pass — serially or on a bounded worker pool,
// byte-identically either way.
func (n *Network) recomputeClasses() {
	n.scTouched = n.scTouched[:0]
	for _, fc := range n.classes {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(fc.links))
		fc.alive = true
		for _, l := range fc.links {
			if !l.Up() {
				fc.alive = false
				break
			}
		}
		if !fc.alive {
			// Stalled at rate 0 on a dead path: no capacity, no CNPs, no
			// goodput until the path heals.
			fc.frozen = true
			fc.rate = 0
			for _, f := range fc.members {
				f.rate = 0
				f.cnpRate = 0
				f.goodRate = 0
			}
			continue
		}
		fc.frozen = false
		m := len(fc.members)
		for _, l := range fc.links {
			id := l.ID
			if !n.scSeen[id] {
				n.scSeen[id] = true
				n.scCap[id] = l.Gbps * Gbps
				n.scCount[id] = 0
				n.scClasses[id] = n.scClasses[id][:0]
				n.scTouched = append(n.scTouched, id)
			}
			n.scCount[id] += m
			n.scClasses[id] = append(n.scClasses[id], fc)
		}
	}

	comps := n.partition()
	minEta := n.settleComponents(comps)

	n.snapshotUtil()
	// Restore the between-calls invariant: scSeen and scFactor all zero, so
	// links untouched by the next flow set read as absent, not stale.
	for _, id := range n.scTouched {
		n.scSeen[id] = false
		n.scFactor[id] = 0
	}
	n.rearmCompletion(minEta)
}

// scanComponent finds the smallest fair share on c's links: what is left of
// a link's capacity split evenly over the unfrozen members crossing it.
// Like the other per-component passes it may run on a worker goroutine: it
// touches only the component's own links (disjoint scratch indices by
// construction), its own classes and their members, and read-only shared
// state (topology, config, loss fractions). Work counters accumulate in
// the component and are folded into the network's stats during the
// deterministic merge.
func (n *Network) scanComponent(c *component) {
	c.share = math.Inf(1)
	c.linkVisits += uint64(len(c.links))
	for _, id := range c.links {
		if n.scCount[id] <= 0 {
			continue
		}
		if share := n.scCap[id] / float64(n.scCount[id]); share < c.share {
			c.share = share
		}
	}
}

// startComponent counts c's unfrozen members and scans its first share.
func (n *Network) startComponent(c *component) {
	c.unfrozen = 0
	for _, fc := range c.classes {
		c.unfrozen += len(fc.members)
	}
	n.scanComponent(c)
}

// freezeComponent runs one filling round on c: every unfrozen class on a
// link whose share is within rateEpsilon of the round's bottleneck share
// c.best freezes at exactly c.best, and c is rescanned for the next round.
// The inner per-member subtraction loop is deliberately NOT fused into one
// multiply: the per-flow oracle subtracts the bottleneck share once per
// flow with a clamp at zero, and only the same sequence of operations
// reproduces its floating-point results exactly.
func (n *Network) freezeComponent(c *component) {
	best := c.best
	c.progressed = false
	c.linkVisits += uint64(len(c.links))
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
			c.flowVisits++
			c.linkVisits += uint64(len(fc.links))
			fc.rate = best
			fc.frozen = true
			m := len(fc.members)
			c.unfrozen -= m
			c.progressed = true
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
}

// finishComponent runs the CNP and ETA passes over a filled component.
func (n *Network) finishComponent(c *component) {
	// CNP pass, class-wise: saturated links with contention emit
	// notifications toward every sender crossing them. A single flow at
	// line rate builds no queue in the fluid model, so saturation requires
	// >= 2 competing flows. Adding a class's rate once per member mirrors
	// the per-flow accumulation order closely enough to stay inside the
	// saturation threshold's 1e-6 relative slack.
	for _, id := range c.links {
		n.scLoad[id] = 0
		n.scLoadCnt[id] = 0
	}
	for _, fc := range c.classes {
		if fc.rate <= 0 {
			continue
		}
		c.flowVisits++
		c.linkVisits += uint64(len(fc.links))
		m := len(fc.members)
		for _, l := range fc.links {
			v := n.scLoad[l.ID]
			for k := 0; k < m; k++ {
				v += fc.rate
			}
			n.scLoad[l.ID] = v
			n.scLoadCnt[l.ID] += m
		}
	}
	c.linkVisits += uint64(len(c.links))
	for _, id := range c.links {
		n.scFactor[id] = 0
		capBits := n.linkCap(id)
		if n.scLoadCnt[id] >= 2 && capBits > 0 && n.scLoad[id] >= capBits*(1-1e-6) {
			n.scFactor[id] = float64(n.scLoadCnt[id]-1) / float64(n.scLoadCnt[id])
		}
	}

	// Fan the class results out to the members and find the component's
	// earliest completion ETA. Members share rate, CNP rate, and goodput;
	// only remaining bits differ, and min(remaining)/goodRate is the
	// member-wise ETA's minimum. Round up by 1 ns: FromSeconds truncates,
	// and an ETA that lands a sub-nanosecond early would re-fire at the
	// same instant with zero progress. Overshoot is harmless — settle
	// clamps delivery to the remaining bits.
	c.eta = sim.MaxTime
	for _, fc := range c.classes {
		c.flowVisits++
		c.linkVisits += uint64(len(fc.links))
		cnp := 0.0
		loss := 1.0
		for _, l := range fc.links {
			if factor := n.scFactor[l.ID]; factor > 0 {
				cnp += n.Cfg.CNPPerSecond * factor
			}
			if fr := n.lossFrac[l.ID]; fr > 0 {
				loss *= 1 - fr
			}
		}
		good := fc.rate * loss
		minRem := math.Inf(1)
		for _, f := range fc.members {
			f.rate = fc.rate
			f.cnpRate = cnp
			f.goodRate = good
			if f.remaining < minRem {
				minRem = f.remaining
			}
		}
		if good > 0 {
			eta := sim.FromSeconds(minRem/good) + 1
			if eta < 1 {
				eta = 1
			}
			if eta < c.eta {
				c.eta = eta
			}
		}
	}
}

// snapshotUtil copies the aggregate allocated rate per touched link out of
// the CNP-pass scratch into the persistent utilization snapshot that
// Utilization serves, clearing links touched by the previous flow set but
// not this one. The kernel calls it with scLoad/scTouched populated.
func (n *Network) snapshotUtil() {
	for _, id := range n.utilLinks {
		n.utilRate[id] = 0
	}
	n.utilLinks = append(n.utilLinks[:0], n.scTouched...)
	for _, id := range n.utilLinks {
		n.utilRate[id] = n.scLoad[id]
	}
}

// rearmCompletion points the network's single completion event at minEta
// from now. The event is moved in place (Engine.Reschedule) whenever it is
// still queued: recompute runs on every flow-set change, and under the old
// cancel-and-recreate pattern each run leaked one dead event into the
// engine heap — a reroute-heavy run accumulated them faster than pops
// drained them.
func (n *Network) rearmCompletion(minEta sim.Time) {
	if minEta == sim.MaxTime {
		if n.completeEv != nil {
			n.completeEv.Cancel()
			n.completeEv = nil
		}
		return
	}
	if n.Engine.Reschedule(n.completeEv, n.Engine.Now()+minEta) {
		return
	}
	n.completeEv = n.Engine.After(minEta, n.completions)
}
