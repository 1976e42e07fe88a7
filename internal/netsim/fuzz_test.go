package netsim

import (
	"fmt"
	"slices"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

// FuzzClassKernelAgainstOracle decodes its input into a bounded sequence of
// timed operations on the testbed fabric and runs it through every kernel
// variant: the class kernel, serial and on 4 settle workers, must replay
// the per-flow oracle bit for bit — completion order and instants, path-down
// notifications, probed rates, remaining bits, carried bits and CNP counts,
// and the fired-event count — and every recompute of every variant must
// pass the max-min certificate.
//
// Each operation takes four bytes: an opcode byte (low 3 bits: the
// operation; next 3: the delay since the previous one; bit 6: probe after
// it) and three arguments. Missing bytes read as zero.
func FuzzClassKernelAgainstOracle(f *testing.F) {
	tp := topo.MustNew(topo.PaperTestbed())
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := runFuzzOps(t, kernelVariants[0], tp, data)
		for _, kv := range kernelVariants[1:] {
			got := runFuzzOps(t, kv, tp, data)
			if i := firstDiff(got, ref); i >= 0 {
				t.Fatalf("%s kernel diverged from per-flow at record %d:\n  got  %+v\n  want %+v",
					kv.name, i, at(got, i), at(ref, i))
			}
		}
	})
}

// fuzzRecord is one observation of a fuzz run: a completion, a path-down
// notification, a probe of a link or a flow, or a final counter.
type fuzzRecord struct {
	at   sim.Time
	what string
	name string
	v    [3]float64
}

const (
	fuzzMaxOps   = 48
	fuzzMaxFlows = 40
)

// fuzzDelays are the gaps between operations; the zeros make same-instant
// batches (cancel before admission, same-instant completions) common.
var fuzzDelays = [8]sim.Time{0, 0, sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond,
	50 * sim.Millisecond, 200 * sim.Millisecond, sim.Second}

// fuzzSizes repeats sizes so flows started together on one chain finish in
// the same completion wave; 0 is a 1-bit control message.
var fuzzSizes = [8]float64{0, 2e9, 10e9, 10e9, 25e9, 25e9, 60e9, 150e9}

// fuzzRoutes is the route palette as PathFor arguments: chains sharing a
// source port, a spine route or a destination port, a same-leaf route, and
// a pair on rail 1 that forms a link component of its own.
var fuzzRoutes = [8][6]int{
	{0, 4, 0, 0, 0, 0},
	{0, 4, 0, 0, 1, 0},
	{2, 4, 0, 0, 1, 0},
	{2, 6, 0, 1, 0, 1},
	{0, 1, 0, 0, -1, 0},
	{8, 10, 1, 0, 2, 0},
	{9, 10, 1, 0, 2, 0},
	{6, 12, 2, 0, 1, 0},
}

// runFuzzOps runs data's operations on a fresh network over tp with kv's
// kernel and returns the run's observations. It restores the health and
// capacity of the links it may change, so tp can be reused.
func runFuzzOps(t *testing.T, kv kernelVariant, tp *topo.Topology, data []byte) []fuzzRecord {
	eng := sim.NewEngine()
	n := kv.build(eng, tp)
	certify(t, n)

	var paths []*topo.Path
	var links []*topo.Link
	for _, r := range fuzzRoutes {
		p, err := tp.PathFor(r[0], r[1], r[2], r[3], r[4], r[5])
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		for _, l := range p.Links {
			if !slices.Contains(links, l) {
				links = append(links, l)
			}
		}
	}
	gbps := make([]float64, len(links))
	for i, l := range links {
		gbps[i] = l.Gbps
	}
	defer func() {
		for i, l := range links {
			l.Gbps = gbps[i]
			l.SetUp(true)
		}
	}()

	var rec []fuzzRecord
	log := func(what, name string, v ...float64) {
		r := fuzzRecord{at: eng.Now(), what: what, name: name}
		copy(r.v[:], v)
		rec = append(rec, r)
	}
	var flows []*Flow
	// recent picks a flow counting back from the newest, so small
	// arguments hit flows still waiting for admission.
	recent := func(b byte) *Flow {
		if len(flows) == 0 {
			return nil
		}
		return flows[len(flows)-1-int(b)%len(flows)]
	}
	start := func(p *topo.Path, size float64, onDown byte, onComplete func(*Flow)) *Flow {
		h := &handler{done: func(f *Flow) {
			log("done", f.Label)
			if onComplete != nil {
				onComplete(f)
			}
		}}
		switch onDown % 3 {
		case 1:
			alt := paths[int(onDown/3)%len(paths)]
			h.down = func(f *Flow) { log("down-reroute", f.Label); n.Reroute(f, alt) }
		case 2:
			h.down = func(f *Flow) { log("down-cancel", f.Label); n.Cancel(f) }
		}
		f := n.StartFlow(p, size, fmt.Sprintf("f%d", len(flows)), h)
		flows = append(flows, f)
		return f
	}

	apply := func(op, a, b, c byte) {
		switch op {
		case 0: // one flow; its FlowDone may cancel another flow
			if len(flows) >= fuzzMaxFlows {
				return
			}
			var onComplete func(*Flow)
			if c&0x80 != 0 {
				onComplete = func(*Flow) {
					if g := recent(c); g != nil {
						n.Cancel(g)
					}
				}
			}
			start(paths[int(a)%len(paths)], fuzzSizes[b%8], c&0x7f, onComplete)
		case 1: // two equal flows on one chain: the first's FlowDone cancels its same-instant batchmate
			if len(flows)+2 > fuzzMaxFlows {
				return
			}
			p, size := paths[int(a)%len(paths)], fuzzSizes[b%8]
			var mate *Flow
			start(p, size, c, func(*Flow) { n.Cancel(mate) })
			mate = start(p, size, c, nil)
		case 2:
			if f := recent(a); f != nil {
				n.Cancel(f)
			}
		case 3:
			if f := recent(a); f != nil {
				n.Reroute(f, paths[int(b)%len(paths)])
			}
		case 4: // reroute the member of a live class holding the least remaining bits
			f := recent(a)
			if f == nil {
				return
			}
			var least *Flow
			for _, g := range flows {
				if !g.done && g.admitted && g.Path == f.Path && (least == nil || g.remaining < least.remaining) {
					least = g
				}
			}
			if least != nil {
				n.Reroute(least, paths[int(b)%len(paths)])
			}
		case 5:
			n.SetLinkUp(links[int(a)%len(links)], b&1 == 1)
		case 6:
			i := int(a) % len(links)
			n.SetLinkCapacity(links[i], [3]float64{0, 1e-9, gbps[i]}[b%3])
		case 7:
			n.SetLinkLoss(links[int(a)%len(links)], [3]float64{0, 0.01, 0.25}[b%3])
		}
	}
	probe := func(c byte) {
		l := links[int(c)%len(links)]
		p := paths[int(c)%len(paths)]
		log("probe", l.Name, n.CarriedBits(l), n.CNPCount(p.SrcPort))
		for _, f := range flows {
			if !f.Done() {
				log("flow", f.Label, f.Rate(), f.Goodput(), f.Remaining())
			}
		}
	}

	when := sim.Time(0)
	for i := 0; i < fuzzMaxOps && 4*i < len(data); i++ {
		var op [4]byte
		copy(op[:], data[4*i:])
		when += fuzzDelays[(op[0]>>3)&7]
		eng.Schedule(when, func() {
			apply(op[0]&7, op[1], op[2], op[3])
			if op[0]&0x40 != 0 {
				probe(op[3])
			}
		})
	}
	eng.Run()

	for _, l := range links {
		log("final-bits", l.Name, n.CarriedBits(l))
	}
	for _, p := range paths {
		log("final-cnp", p.SrcPort.Up.Name, n.CNPCount(p.SrcPort))
	}
	log("final-events", "", float64(eng.Fired()), float64(n.ActiveFlows()))
	return rec
}

// firstDiff is the index of the first record where a and b differ, or -1.
func firstDiff(a, b []fuzzRecord) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(rec []fuzzRecord, i int) fuzzRecord {
	if i < len(rec) {
		return rec[i]
	}
	return fuzzRecord{what: "end"}
}
