package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"c4/internal/sim"
)

// WriteChrome writes the spans as Chrome trace-event JSON, viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Layout: one process,
// one named thread per span kind (kinds sorted), complete ("X") events in
// span-ID order with ts/dur in microseconds. args carries the lossless
// raw fields (id, parent, start_ns, end_ns) plus every span attribute, so
// ParseChrome round-trips exactly and diffing two exports is meaningful.
//
// Output is byte-deterministic: same spans in, same bytes out. Open spans
// are drawn up to the trace horizon and keep end_ns=-1 in args.
func WriteChrome(w io.Writer, spans []*Span) error {
	bw := bufio.NewWriter(w)
	horizon := Horizon(spans)

	kinds := make([]string, 0, 8)
	seen := make(map[string]bool)
	for _, s := range spans {
		if !seen[s.Kind] {
			seen[s.Kind] = true
			kinds = append(kinds, s.Kind)
		}
	}
	sort.Strings(kinds)
	tid := make(map[string]int, len(kinds))
	for i, k := range kinds {
		tid[k] = i + 1
	}

	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	emit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"c4sim"}}`)
	for _, k := range kinds {
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tid[k], jstr(k)))
	}
	for _, s := range spans {
		end := s.End
		if end < 0 {
			end = horizon
		}
		line := fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":%s,"args":{"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d`,
			tid[s.Kind], usec(int64(s.Start)), usec(int64(end-s.Start)),
			jstr(s.Name), jstr(s.Kind), s.ID, s.Parent, int64(s.Start), int64(s.End))
		for _, a := range s.Attrs {
			line += "," + jstr(a.Key) + ":" + jstr(a.Val)
		}
		line += "}}"
		emit(line)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec renders nanoseconds as a decimal microsecond literal ("1234.567")
// without float formatting, keeping the writer byte-deterministic. The
// magnitude is unsigned, so the most negative int64 renders too.
func usec(ns int64) string {
	neg, mag := "", uint64(ns)
	if ns < 0 {
		neg, mag = "-", -mag
	}
	return fmt.Sprintf("%s%d.%03d", neg, mag/1000, mag%1000)
}

// jstr renders s as a JSON string via encoding/json, which is
// deterministic for strings.
func jstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Ph   string                     `json:"ph"`
	Name string                     `json:"name"`
	Cat  string                     `json:"cat"`
	Args map[string]json.RawMessage `json:"args"`
}

// ParseChrome reads a trace previously written by WriteChrome and
// reconstructs the spans from the lossless args fields. Attribute order
// within a span is not preserved by JSON objects, so attrs come back
// key-sorted; everything else round-trips exactly. Spans are returned in
// ID order (which is creation order for a single-engine trace). IDs must
// be unique, and each span's parent must be 0 or the ID of a span before
// it, as a tracer records them: that keeps the parent links a forest,
// which Profile and CriticalPath walk.
func ParseChrome(r io.Reader) ([]*Span, error) {
	var f chromeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	type read struct {
		span *Span
		ev   int // index of its event
	}
	var rs []read
	for i, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := &Span{Kind: ev.Cat, Name: ev.Name, End: -1}
		var attrs []Attr
		for k, raw := range ev.Args {
			switch k {
			case "id", "parent", "start_ns", "end_ns":
				n, err := strconv.ParseInt(string(raw), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("trace: event %d: bad %s: %w", i, k, err)
				}
				switch k {
				case "id":
					s.ID = int(n)
				case "parent":
					s.Parent = int(n)
				case "start_ns":
					s.Start = sim.Time(n)
				case "end_ns":
					s.End = sim.Time(n)
				}
			default:
				var v string
				if err := json.Unmarshal(raw, &v); err != nil {
					return nil, fmt.Errorf("trace: event %d: attr %s: %w", i, k, err)
				}
				attrs = append(attrs, Attr{Key: k, Val: v})
			}
		}
		if s.ID == 0 {
			return nil, fmt.Errorf("trace: event %d (%s/%s): missing id — not a c4 trace?", i, ev.Cat, ev.Name)
		}
		sort.Slice(attrs, func(a, b int) bool { return attrs[a].Key < attrs[b].Key })
		s.Attrs = attrs
		rs = append(rs, read{s, i})
	}
	slices.SortStableFunc(rs, func(a, b read) int { return cmp.Compare(a.span.ID, b.span.ID) })
	var spans []*Span
	for k, r := range rs {
		s := r.span
		if k > 0 && rs[k-1].span.ID == s.ID {
			return nil, fmt.Errorf("trace: event %d (%s/%s): id %d repeats event %d's", r.ev, s.Kind, s.Name, s.ID, rs[k-1].ev)
		}
		_, known := slices.BinarySearchFunc(rs[:k], s.Parent, func(r read, id int) int { return cmp.Compare(r.span.ID, id) })
		if s.Parent != 0 && !known {
			return nil, fmt.Errorf("trace: event %d (%s/%s): parent %d is neither 0 nor the id of a span before it", r.ev, s.Kind, s.Name, s.Parent)
		}
		spans = append(spans, s)
	}
	return spans, nil
}
