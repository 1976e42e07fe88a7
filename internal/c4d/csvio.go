package c4d

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"c4/internal/accl"
	"c4/internal/metrics"
	"c4/internal/sim"
)

// This file implements the stats files of the paper's Fig 5 — the
// comm-stats / coll-stats / conn-stats / rank-stats CSV time series each
// C4a agent writes — and the offline "C4 Analyzer" that replays them
// through the same detectors the online master uses. Production keeps
// these files for post-mortems; here they also make the analyzer testable
// against golden data.

// The column names of each stats file: its writer's header line, and the
// first row its reader requires.
var (
	connStatsHeader = []string{"comm", "seq", "src_node", "dst_node", "rail", "plane",
		"sport", "qpn", "bytes", "start_ns", "end_ns"}
	collStatsHeader = []string{"comm", "seq", "node", "op", "algo", "bytes", "phase", "t_ns"}
	rankStatsHeader = []string{"comm", "seq", "waiter", "on", "dur_ns", "t_ns"}
	commStatsHeader = []string{"comm", "rank", "node"}
)

// WriteConnStats emits transport-layer records (conn-stats.csv).
func WriteConnStats(w io.Writer, msgs []accl.MsgEvent) error {
	cw := metrics.NewCSVWriter(w, connStatsHeader...)
	for _, m := range msgs {
		err := cw.Write(m.Comm, m.Seq, m.SrcNode, m.DstNode, m.Rail, m.Plane,
			int(m.Sport), m.QPN, m.Bytes, int64(m.Start), int64(m.End))
		if err != nil {
			return err
		}
	}
	return cw.Flush()
}

// ReadConnStats parses conn-stats.csv. It refuses negative times and a
// transfer that ends before it starts, naming the line.
func ReadConnStats(r io.Reader) ([]accl.MsgEvent, error) {
	rows, err := readCSV(r, connStatsHeader)
	if err != nil {
		return nil, fmt.Errorf("conn-stats: %w", err)
	}
	out := make([]accl.MsgEvent, 0, len(rows))
	for _, f := range rows {
		ev := accl.MsgEvent{
			Comm: f.i(0), Seq: f.i(1), SrcNode: f.i(2), DstNode: f.i(3),
			Rail: f.i(4), Plane: f.i(5), Sport: uint16(f.i(6)), QPN: f.i(7),
			Bytes: f.f(8), Start: sim.Time(f.i64(9)), End: sim.Time(f.i64(10)),
		}
		if f.err == nil && (ev.Start < 0 || ev.End < ev.Start) {
			f.err = fmt.Errorf("transfer spans [%d, %d] ns: times must satisfy 0 <= start_ns <= end_ns", ev.Start, ev.End)
		}
		if f.err != nil {
			return nil, fmt.Errorf("conn-stats line %d: %w", f.line, f.err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// WriteCollStats emits operation-layer records (coll-stats.csv).
func WriteCollStats(w io.Writer, colls []accl.CollEvent) error {
	cw := metrics.NewCSVWriter(w, collStatsHeader...)
	for _, c := range colls {
		err := cw.Write(c.Comm, c.Seq, c.Node, string(c.Op), c.Algo,
			c.Bytes, int(c.Phase), int64(c.Time))
		if err != nil {
			return err
		}
	}
	return cw.Flush()
}

// ReadCollStats parses coll-stats.csv.
func ReadCollStats(r io.Reader) ([]accl.CollEvent, error) {
	rows, err := readCSV(r, collStatsHeader)
	if err != nil {
		return nil, fmt.Errorf("coll-stats: %w", err)
	}
	out := make([]accl.CollEvent, 0, len(rows))
	for _, f := range rows {
		ev := accl.CollEvent{
			Comm: f.i(0), Seq: f.i(1), Node: f.i(2),
			Op: accl.OpType(f.s(3)), Algo: f.s(4), Bytes: f.f(5),
			Phase: accl.CollPhase(f.i(6)), Time: sim.Time(f.i64(7)),
		}
		if f.err != nil {
			return nil, fmt.Errorf("coll-stats line %d: %w", f.line, f.err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// WriteRankStats emits receiver-driven wait records (rank-stats.csv).
func WriteRankStats(w io.Writer, waits []accl.WaitEvent) error {
	cw := metrics.NewCSVWriter(w, rankStatsHeader...)
	for _, wt := range waits {
		if err := cw.Write(wt.Comm, wt.Seq, wt.Waiter, wt.On, int64(wt.Dur), int64(wt.Time)); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// ReadRankStats parses rank-stats.csv.
func ReadRankStats(r io.Reader) ([]accl.WaitEvent, error) {
	rows, err := readCSV(r, rankStatsHeader)
	if err != nil {
		return nil, fmt.Errorf("rank-stats: %w", err)
	}
	out := make([]accl.WaitEvent, 0, len(rows))
	for _, f := range rows {
		ev := accl.WaitEvent{
			Comm: f.i(0), Seq: f.i(1), Waiter: f.i(2), On: f.i(3),
			Dur: sim.Time(f.i64(4)), Time: sim.Time(f.i64(5)),
		}
		if f.err != nil {
			return nil, fmt.Errorf("rank-stats line %d: %w", f.line, f.err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// WriteCommStats emits communicator membership (comm-stats.csv).
func WriteCommStats(w io.Writer, comms []accl.CommInfo) error {
	cw := metrics.NewCSVWriter(w, commStatsHeader...)
	for _, ci := range comms {
		for rank, node := range ci.Nodes {
			if err := cw.Write(ci.Comm, rank, node); err != nil {
				return err
			}
		}
	}
	return cw.Flush()
}

// ReadCommStats parses comm-stats.csv.
func ReadCommStats(r io.Reader) ([]accl.CommInfo, error) {
	rows, err := readCSV(r, commStatsHeader)
	if err != nil {
		return nil, fmt.Errorf("comm-stats: %w", err)
	}
	byComm := map[int][]int{}
	var order []int
	for _, f := range rows {
		comm := f.i(0)
		f.i(1) // the rank is the row's position within its communicator
		node := f.i(2)
		if f.err != nil {
			return nil, fmt.Errorf("comm-stats line %d: %w", f.line, f.err)
		}
		if _, ok := byComm[comm]; !ok {
			order = append(order, comm)
		}
		byComm[comm] = append(byComm[comm], node)
	}
	out := make([]accl.CommInfo, 0, len(order))
	for _, c := range order {
		out = append(out, accl.CommInfo{Comm: c, Nodes: byComm[c]})
	}
	return out, nil
}

// fields wraps one CSV row with typed accessors that latch the first error.
type fields struct {
	cells []string
	line  int // of the row in its file, for error messages
	err   error
}

func (f *fields) s(i int) string { return f.cells[i] }

func (f *fields) i(i int) int {
	v, err := strconv.Atoi(f.cells[i])
	if err != nil && f.err == nil {
		f.err = err
	}
	return v
}

func (f *fields) i64(i int) int64 {
	v, err := strconv.ParseInt(f.cells[i], 10, 64)
	if err != nil && f.err == nil {
		f.err = err
	}
	return v
}

func (f *fields) f(i int) float64 {
	v, err := strconv.ParseFloat(f.cells[i], 64)
	if err != nil && f.err == nil {
		f.err = err
	}
	return v
}

// readCSV reads every row after the header, each with its line number.
// A file that holds any row must open with exactly header: a file without
// it would otherwise lose its first record silently.
func readCSV(r io.Reader, header []string) ([]*fields, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(header)
	var out []*fields
	for first := true; ; first = false {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		line, _ := cr.FieldPos(0)
		if !first {
			out = append(out, &fields{cells: rec, line: line})
		} else if !slices.Equal(rec, header) {
			return nil, fmt.Errorf("line %d: %q is not the header %q",
				line, strings.Join(rec, ","), strings.Join(header, ","))
		}
	}
}

// OfflineFinding is one windowed analyzer result.
type OfflineFinding struct {
	WindowStart sim.Time
	WindowEnd   sim.Time
	Comm        int
	Finding     MatrixFinding
}

// offlineWindow is one analysis window's records of one communicator.
type offlineWindow struct {
	start sim.Time // a multiple of the window length
	comm  int
	pairs map[[2]int]*pairAgg
}

// offlineWindows buckets transfers by the window their end falls in,
// [k*window, (k+1)*window), and returns the buckets that hold records in
// (window, communicator) order: at most one per record, however far apart
// the records lie. Records ending before time 0 fall in no window.
func offlineWindows(msgs []accl.MsgEvent, window sim.Time) []*offlineWindow {
	type key struct {
		start sim.Time
		comm  int
	}
	byKey := map[key]*offlineWindow{}
	var out []*offlineWindow
	for _, m := range msgs {
		if m.End < 0 {
			continue
		}
		k := key{m.End / window * window, m.Comm}
		w := byKey[k]
		if w == nil {
			w = &offlineWindow{start: k.start, comm: k.comm, pairs: map[[2]int]*pairAgg{}}
			byKey[k] = w
			out = append(out, w)
		}
		pair := [2]int{m.SrcNode, m.DstNode}
		agg := w.pairs[pair]
		if agg == nil {
			agg = &pairAgg{}
			w.pairs[pair] = agg
		}
		agg.bytes += m.Bytes
		agg.dur += m.Duration()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].comm < out[j].comm
	})
	return out
}

// AnalyzeOffline replays conn-stats records through the comm-slow
// localizer in fixed windows — the paper's "C4 Analyzer" box in Fig 5,
// used for post-mortems on archived stats. Only windows that hold records
// are analyzed; a window's end saturates at the largest time.
func AnalyzeOffline(msgs []accl.MsgEvent, window sim.Time, kappa, rowColFrac float64) []OfflineFinding {
	if window <= 0 {
		return nil
	}
	var out []OfflineFinding
	for _, w := range offlineWindows(msgs, window) {
		end := w.start + min(window, math.MaxInt64-w.start)
		bw := map[[2]int]float64{}
		for key, agg := range w.pairs {
			if agg.dur > 0 {
				bw[key] = agg.bytes * 8 / agg.dur.Seconds()
			}
		}
		for _, f := range AnalyzeDelayMatrix(bw, kappa, rowColFrac) {
			out = append(out, OfflineFinding{
				WindowStart: w.start, WindowEnd: end, Comm: w.comm, Finding: f,
			})
		}
	}
	return out
}
