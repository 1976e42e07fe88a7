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
// Cancel, Reroute, OnPathDown and per-member OnComplete callbacks are
// untouched, settle still advances each member's remaining bits
// individually (members may differ in size), and the arithmetic is
// arranged so the allocations match per-flow filling bit for bit —
// per-member capacity subtraction with per-step clamping rather than one
// fused multiply, so repeated subtraction of the same bottleneck share
// rounds exactly like a flow-by-flow loop.

// flowClass is the unit of allocation: every admitted flow whose path has
// an identical link chain.
type flowClass struct {
	key     string
	links   []*topo.Link // the shared chain, in path order
	members []*Flow      // admission order

	// Kernel scratch, valid during one recompute. When components fill in
	// parallel each class belongs to exactly one component, so there is no
	// cross-goroutine sharing.
	alive  bool
	frozen bool
	rate   float64

	span *trace.Span // class-lifetime span; nil when tracing is off
}

// classAdmit joins f to the class of its link chain. The aggregation key
// is the path's dense link IDs packed little-endian: two paths with equal
// keys cross exactly the same resources in the same order and are
// indistinguishable to the kernel. The key is built in a reusable byte
// buffer; Go's map lookup on string(buf) does not allocate, so only the
// first member a chain ever has pays for a string and a class. A class
// that lost its last member stays in the index and is revived here: it
// re-enters n.classes at the end, as a new class would, and starts a fresh
// class span, so the index stays bounded by the distinct chains a run uses
// and chains that drain and refill every iteration allocate nothing.
func (n *Network) classAdmit(f *Flow) {
	b := n.classKey[:0]
	for _, l := range f.Path.Links {
		id := uint32(l.ID)
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	n.classKey = b
	fc := n.classIndex[string(b)]
	if fc == nil {
		fc = &flowClass{key: string(b), links: append([]*topo.Link(nil), f.Path.Links...)}
		n.classIndex[fc.key] = fc
	}
	if len(fc.members) == 0 {
		n.classes = append(n.classes, fc)
		if n.Trace.Enabled() {
			fc.span = n.Trace.Start(nil, "class", classLabel(fc))
		}
	}
	fc.members = append(fc.members, f)
	f.class = fc
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
	if len(fc.members) == 0 {
		fc.span.FinishAt(n.Engine.Now())
		if i := slices.Index(n.classes, fc); i >= 0 {
			n.classes = slices.Delete(n.classes, i, i+1)
		}
	}
}
