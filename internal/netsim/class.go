package netsim

import (
	"slices"

	"c4/internal/topo"
	"c4/internal/trace"
)

// Flow-class aggregation: the paper's workloads are N-rank collectives, so
// at any instant the flow set is dominated by transfers whose paths are
// literally identical — the same QP pipelining chunks, ECMP hashing two
// sibling QPs onto one spine, tenants sharing a planned route. Max-min
// filling treats equal-path flows identically (they see the same links, so
// they freeze in the same round at the same share), which means the kernel
// only needs one representative per distinct link chain plus a member
// count. This file groups admitted flows into such classes; the kernel
// (kernel.go) runs the filling, CNP, and ETA passes over classes instead
// of flows.
//
// The aggregation sits strictly behind the per-flow semantics: StartFlow,
// Cancel, Reroute and the per-member PathDown and FlowDone notifications
// are untouched, and the allocations match per-flow filling bit for bit. Two
// per-member loops stay for that: settle advances each member's remaining
// bits individually (members may differ in size), and freezeComponent
// subtracts the bottleneck share once per member with per-step clamping
// rather than in one fused multiply, so it rounds exactly like a
// flow-by-flow loop. The remaining-bits update is settle's only per-member
// work: it sums the members' delivered bits and CNP rates and charges
// each sum once to the class's links and source port. Everything else a
// recompute does per class is O(links): the CNP load is one multiply per
// class and link, and fanOut copies the class's results to its members
// only when the class changed.

// flowClass is the unit of allocation: every admitted flow whose path has
// an identical link chain and source port.
type flowClass struct {
	// The fields settle reads come first: the members, the key, whose
	// chain part holds the chain's link IDs (see classAdmit), and the
	// source port's up-link ID, -1 for a path without one (NVLink).
	members []*Flow // admission order
	key     string
	port    int32

	links []*topo.Link // the shared chain, in path order

	// Kernel scratch, valid during one recompute.
	frozen bool
	rate   float64

	// comp is the link component the class filled in at its last
	// recompute, nil while it is dead or retired. refill marks a class the
	// next recompute re-fills: its membership changed (it is then in
	// Network.marked), or its component dissolved.
	comp   *component
	refill bool

	// least is the member holding the least remaining bits as of the last
	// fanOut, or nil after a membership change. While it is set, every
	// member holds the rate, CNP rate and goodput least holds. Members
	// share their goodput, so settle subtracts the same amount from each
	// (rounding is monotone) and least stays least.
	least *Flow

	span *trace.Span // class-lifetime span; nil when tracing is off
}

// fanOut gives every member the class's rate, CNP rate and goodput and
// returns the least remaining bits among the members. It walks the
// members only when the membership or one of the values changed since the
// last fan-out; otherwise they already hold the values and the cached
// least member answers.
func (fc *flowClass) fanOut(rate, cnp, good float64) float64 {
	if l := fc.least; l == nil || l.rate != rate || l.cnpRate != cnp || l.goodRate != good {
		least := fc.members[0]
		for _, f := range fc.members {
			f.rate, f.cnpRate, f.goodRate = rate, cnp, good
			if f.remaining < least.remaining {
				least = f
			}
		}
		fc.least = least
	}
	return fc.least.remaining
}

// classAdmit joins f to the class of its link chain and source port. The
// aggregation key is the path's dense link IDs followed by its source
// port's up-link ID (-1 without one), each packed little-endian in 4
// bytes: two paths with equal keys cross exactly the same resources in the
// same order and charge their CNPs to the same port, so they are
// indistinguishable to the kernel and to settle. The port never splits a
// real chain, whose second link is the source port's up-link. The key is
// built in a reusable byte buffer; Go's map lookup on string(buf) does not
// allocate, so only the first member a chain ever has pays for a string
// and a class. A class that lost its last member stays in the index and is
// revived here: it re-enters n.classes at the end, as a new class would,
// and starts a fresh class span, so the index stays bounded by the
// distinct chains a run uses and chains that drain and refill every
// iteration allocate nothing.
func (n *Network) classAdmit(f *Flow) {
	port := int32(-1)
	if p := f.Path.SrcPort; p != nil {
		port = int32(p.Up.ID)
	}
	b := n.classKey[:0]
	for _, l := range f.Path.Links {
		b = appendKeyID(b, uint32(l.ID))
	}
	b = appendKeyID(b, uint32(port))
	n.classKey = b
	fc := n.classIndex[string(b)]
	if fc == nil {
		fc = &flowClass{key: string(b), port: port, links: append([]*topo.Link(nil), f.Path.Links...)}
		n.classIndex[fc.key] = fc
	}
	if len(fc.members) == 0 {
		n.classes = append(n.classes, fc)
		if n.Trace.Enabled() {
			fc.span = n.Trace.Start(nil, "class", classLabel(fc))
		}
	}
	fc.members = append(fc.members, f)
	fc.least = nil
	f.class = fc
	n.mark(fc)
}

// appendKeyID appends id to a class key, little-endian.
func appendKeyID(b []byte, id uint32) []byte {
	return append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

// keyID reads the ID packed at the start of s, a part of a class key.
func keyID(s string) uint32 {
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// chain returns the part of fc's key that packs its chain's link IDs, 4
// bytes each in path order.
func (fc *flowClass) chain() string { return fc.key[:len(fc.key)-4] }

// mark records that fc's membership changed, so the next recompute
// re-fills fc and every component it holds or touches.
func (n *Network) mark(fc *flowClass) {
	if !fc.refill {
		fc.refill = true
		n.marked = append(n.marked, fc)
	}
}

// classLabel names a class span by its shared link chain's endpoints.
func classLabel(fc *flowClass) string {
	if len(fc.links) == 0 {
		return "empty"
	}
	return fc.links[0].Name + ".." + fc.links[len(fc.links)-1].Name
}

// classRemove detaches f from its class, retiring the class from
// n.classes when f was the last member (it stays in the index for
// revival). Removal preserves member admission order and the order of
// n.classes, which the kernel iterates; slices.Delete clears the vacated
// slot, so a retired class pins no finished flow.
func (n *Network) classRemove(f *Flow) {
	fc := f.class
	f.class = nil
	if i := slices.Index(fc.members, f); i >= 0 {
		fc.members = slices.Delete(fc.members, i, i+1)
	}
	fc.least = nil
	n.mark(fc)
	if len(fc.members) == 0 {
		fc.span.FinishAt(n.Engine.Now())
		if i := slices.Index(n.classes, fc); i >= 0 {
			n.classes = slices.Delete(n.classes, i, i+1)
		}
	}
}
