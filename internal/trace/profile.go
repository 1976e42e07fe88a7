package trace

import (
	"sort"

	"c4/internal/sim"
)

// ProfileRow is the per-kind aggregate of a trace: how many spans of the
// kind exist, their total duration, and their self time (duration not
// covered by child spans). Self sums to the union of root activity, so it
// is the number to rank by when asking "where did the time go".
type ProfileRow struct {
	Kind  string
	Count int
	Total sim.Time
	Self  sim.Time
}

// Forest is a trace indexed once for analysis: each span's children in
// creation order, and the trace's horizon. Profile and every CriticalPath
// walk over one trace share it, so a walk costs the spans it visits, not
// the whole trace.
type Forest struct {
	spans   []*Span
	horizon sim.Time
	kids    map[int][]*Span // span ID → children in creation order
}

// NewForest indexes spans.
func NewForest(spans []*Span) *Forest {
	kids := make(map[int][]*Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return &Forest{spans: spans, horizon: Horizon(spans), kids: kids}
}

// Horizon reports the trace's horizon (see the package function Horizon).
func (f *Forest) Horizon() sim.Time { return f.horizon }

// Profile aggregates spans by kind. Rows are sorted by Self descending,
// ties broken by kind name, so the report is deterministic.
func Profile(spans []*Span) []ProfileRow { return NewForest(spans).Profile() }

// Profile aggregates the forest's spans by kind, as the package function
// Profile does.
func (f *Forest) Profile() []ProfileRow {
	horizon, kids := f.horizon, f.kids
	agg := make(map[string]*ProfileRow)
	order := make([]string, 0, 8)
	for _, s := range f.spans {
		row := agg[s.Kind]
		if row == nil {
			row = &ProfileRow{Kind: s.Kind}
			agg[s.Kind] = row
			order = append(order, s.Kind)
		}
		row.Count++
		d := s.Dur(horizon)
		row.Total += d
		row.Self += d - coveredByChildren(s, kids[s.ID], horizon)
	}
	rows := make([]ProfileRow, 0, len(order))
	for _, k := range order {
		rows = append(rows, *agg[k])
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Kind < rows[j].Kind
	})
	return rows
}

// coveredByChildren returns the length of the union of the children's
// intervals clipped to the parent's window.
func coveredByChildren(s *Span, children []*Span, horizon sim.Time) sim.Time {
	if len(children) == 0 {
		return 0
	}
	pEnd := s.End
	if pEnd < 0 {
		pEnd = horizon
	}
	type iv struct{ a, b sim.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if b < 0 {
			b = horizon
		}
		if a < s.Start {
			a = s.Start
		}
		if b > pEnd {
			b = pEnd
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].a != ivs[j].a {
			return ivs[i].a < ivs[j].a
		}
		return ivs[i].b < ivs[j].b
	})
	var covered, hi sim.Time
	hi = -1
	var lo sim.Time
	started := false
	for _, v := range ivs {
		if !started || v.a > hi {
			if started {
				covered += hi - lo
			}
			lo, hi = v.a, v.b
			started = true
		} else if v.b > hi {
			hi = v.b
		}
	}
	if started {
		covered += hi - lo
	}
	return covered
}

// PathSeg is one segment of a critical path: the span that was the
// deepest active cause over [From, To).
type PathSeg struct {
	Span *Span
	From sim.Time
	To   sim.Time
}

// CriticalPath walks backward from root's end, at each instant descending
// into the child whose (clipped) end is latest — the child that gated
// progress — and attributes uncovered gaps to the parent itself. The
// returned segments are chronological, disjoint, and tile [root.Start,
// root end] exactly, so summing by span kind answers "what was iteration
// N actually waiting on".
//
// Ties (two children ending at the same instant) break toward the later
// created span (higher ID), i.e. the one scheduled last, which is the
// deterministic analogue of "most recently blocked".
func (f *Forest) CriticalPath(root *Span) []PathSeg {
	horizon, kids := f.horizon, f.kids
	var segs []PathSeg
	var walk func(s *Span, upTo sim.Time)
	walk = func(s *Span, upTo sim.Time) {
		t := upTo
		for t > s.Start {
			var best *Span
			var bestEnd sim.Time
			for _, c := range kids[s.ID] {
				ce := c.End
				if ce < 0 {
					ce = horizon
				}
				if ce > t {
					ce = t
				}
				cs := c.Start
				if cs < s.Start {
					cs = s.Start
				}
				if ce <= cs || ce <= s.Start {
					continue
				}
				if best == nil || ce > bestEnd || (ce == bestEnd && c.ID > best.ID) {
					best, bestEnd = c, ce
				}
			}
			if best == nil {
				break
			}
			if bestEnd < t {
				segs = append(segs, PathSeg{Span: s, From: bestEnd, To: t})
			}
			walk(best, bestEnd)
			t = best.Start
			if t < s.Start {
				t = s.Start
			}
		}
		if t > s.Start {
			segs = append(segs, PathSeg{Span: s, From: s.Start, To: t})
		}
	}
	end := root.End
	if end < 0 {
		end = horizon
	}
	if end > root.Start {
		walk(root, end)
	}
	// Segments were discovered in reverse chronological order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// PathRow aggregates critical-path segments by (kind, name): Self is the
// summed path time attributed to spans with that identity, Share its
// fraction of the whole path.
type PathRow struct {
	Kind  string
	Name  string
	Self  sim.Time
	Share float64
}

// PathProfile aggregates path segments into rows sorted by Self
// descending (ties by kind then name).
func PathProfile(segs []PathSeg) []PathRow {
	type key struct{ kind, name string }
	agg := make(map[key]*PathRow)
	order := make([]key, 0, 16)
	var total sim.Time
	for _, g := range segs {
		k := key{g.Span.Kind, g.Span.Name}
		row := agg[k]
		if row == nil {
			row = &PathRow{Kind: k.kind, Name: k.name}
			agg[k] = row
			order = append(order, k)
		}
		d := g.To - g.From
		row.Self += d
		total += d
	}
	rows := make([]PathRow, 0, len(order))
	for _, k := range order {
		r := *agg[k]
		if total > 0 {
			r.Share = float64(r.Self) / float64(total)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		if rows[i].Kind != rows[j].Kind {
			return rows[i].Kind < rows[j].Kind
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// ByKind returns the spans of one kind, in creation order.
func ByKind(spans []*Span, kind string) []*Span {
	var out []*Span
	for _, s := range spans {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// Children returns the direct children of the span with the given ID, in
// creation order.
func Children(spans []*Span, id int) []*Span {
	var out []*Span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}
