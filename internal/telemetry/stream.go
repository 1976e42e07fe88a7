package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"c4/internal/accl"
	"c4/internal/sim"
)

// The JSONL stream format: one record per line, nanosecond-integer
// timestamps for exact round-tripping (replay must be bit-identical to
// the live run). Field reference — documented in README.md:
//
//	t_ns   event time (virtual ns)            all kinds
//	kind   comm-create|comm-close|coll|msg|wait
//	node   collecting node (-1 = control)      all kinds
//	comm   communicator id                     all kinds
//	nodes  membership                          comm-create
//	seq    operation sequence number           coll, msg, wait
//	op     collective op, phase arrive|complete  coll
//	bytes  payload bytes                       coll, msg
//	src/dst, rail/plane/sport/qpn, start_ns/end_ns   msg
//	                                  (0 <= start_ns <= end_ns)
//	waiter/on, dur_ns                          wait

// wireRecord is the JSONL line shape.
type wireRecord struct {
	TNs  int64  `json:"t_ns"`
	Kind string `json:"kind"`
	Node int    `json:"node"`
	Comm int    `json:"comm"`

	Nodes []int `json:"nodes,omitempty"`

	Seq   int     `json:"seq,omitempty"`
	Op    string  `json:"op,omitempty"`
	Phase string  `json:"phase,omitempty"`
	Algo  string  `json:"algo,omitempty"`
	Bytes float64 `json:"bytes,omitempty"`

	Src     int    `json:"src,omitempty"`
	Dst     int    `json:"dst,omitempty"`
	Rail    int    `json:"rail,omitempty"`
	Plane   int    `json:"plane,omitempty"`
	Sport   uint16 `json:"sport,omitempty"`
	QPN     int    `json:"qpn,omitempty"`
	StartNs int64  `json:"start_ns,omitempty"`
	EndNs   int64  `json:"end_ns,omitempty"`

	Waiter int   `json:"waiter,omitempty"`
	On     int   `json:"on,omitempty"`
	DurNs  int64 `json:"dur_ns,omitempty"`
}

func toWire(r Record) wireRecord {
	w := wireRecord{TNs: int64(r.Time), Kind: r.Kind.String(), Node: r.Node, Comm: r.Comm}
	switch r.Kind {
	case KindCommCreate:
		w.Nodes = r.Nodes
	case KindColl:
		ev := r.Coll
		w.Seq, w.Op, w.Algo, w.Bytes = ev.Seq, string(ev.Op), ev.Algo, ev.Bytes
		if ev.Phase == accl.PhaseComplete {
			w.Phase = "complete"
		} else {
			w.Phase = "arrive"
		}
	case KindMsg:
		ev := r.Msg
		w.Seq, w.Bytes = ev.Seq, ev.Bytes
		w.Src, w.Dst = ev.SrcNode, ev.DstNode
		w.Rail, w.Plane, w.Sport, w.QPN = ev.Rail, ev.Plane, ev.Sport, ev.QPN
		w.StartNs, w.EndNs = int64(ev.Start), int64(ev.End)
	case KindWait:
		ev := r.Wait
		w.Seq, w.Waiter, w.On, w.DurNs = ev.Seq, ev.Waiter, ev.On, int64(ev.Dur)
	}
	return w
}

func fromWire(w *wireRecord) (Record, error) {
	rec := Record{Time: sim.Time(w.TNs), Node: w.Node, Comm: w.Comm}
	switch w.Kind {
	case "comm-create":
		rec.Kind = KindCommCreate
		rec.Nodes = w.Nodes
	case "comm-close":
		rec.Kind = KindCommClose
	case "coll":
		rec.Kind = KindColl
		var phase accl.CollPhase
		switch w.Phase {
		case "arrive":
			phase = accl.PhaseArrive
		case "complete":
			phase = accl.PhaseComplete
		default:
			return Record{}, fmt.Errorf("telemetry: unknown coll phase %q", w.Phase)
		}
		rec.Coll = &accl.CollEvent{
			Time: sim.Time(w.TNs), Comm: w.Comm, Seq: w.Seq, Node: w.Node,
			Op: accl.OpType(w.Op), Algo: w.Algo, Bytes: w.Bytes, Phase: phase,
		}
	case "msg":
		if w.StartNs < 0 || w.EndNs < w.StartNs {
			return Record{}, fmt.Errorf("telemetry: transfer spans [%d, %d] ns: times must satisfy 0 <= start_ns <= end_ns", w.StartNs, w.EndNs)
		}
		rec.Kind = KindMsg
		rec.Msg = &accl.MsgEvent{
			Comm: w.Comm, Seq: w.Seq, SrcNode: w.Src, DstNode: w.Dst,
			Rail: w.Rail, Plane: w.Plane, Sport: w.Sport, QPN: w.QPN,
			Bytes: w.Bytes, Start: sim.Time(w.StartNs), End: sim.Time(w.EndNs),
		}
	case "wait":
		rec.Kind = KindWait
		rec.Wait = &accl.WaitEvent{
			Time: sim.Time(w.TNs), Comm: w.Comm, Seq: w.Seq,
			Waiter: w.Waiter, On: w.On, Dur: sim.Time(w.DurNs),
		}
	default:
		return Record{}, fmt.Errorf("telemetry: unknown record kind %q", w.Kind)
	}
	return rec, nil
}

// EncodeRecord serializes one record as a JSONL line (trailing newline
// included), byte-identical to the lines a StreamWriter emits. The
// serving plane uses it to frame individual records into SSE events
// without re-implementing the wire format.
func EncodeRecord(r Record) ([]byte, error) {
	var buf [lineReserve]byte
	line, err := appendRecord(buf[:0], r)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(line)+1), line...), '\n'), nil
}

// lineReserve is room for any line of the simulator's records: a
// StreamWriter flushes before less than this is left in its buffer, so
// appending a line in place does not outgrow it. Longer lines (a large
// comm-create membership) still encode, through one allocation.
const lineReserve = 512

// StreamWriter serializes the record stream as JSONL. It implements
// Sink, so it plugs into a Pipeline beside the online detector.
type StreamWriter struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewStreamWriter wraps a writer.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: bufio.NewWriter(w)}
}

// Observe implements Sink. The first encode or write error sticks —
// further records are dropped — and is reported by both Err and Flush,
// so a streaming caller can notice a broken writer mid-run and terminate
// the stream instead of silently losing the rest of it.
func (s *StreamWriter) Observe(r Record) {
	if s.err != nil {
		return
	}
	if s.w.Available() < lineReserve {
		if s.err = s.w.Flush(); s.err != nil {
			return
		}
	}
	line, err := appendRecord(s.w.AvailableBuffer(), r)
	if err == nil {
		_, err = s.w.Write(append(line, '\n'))
	}
	if err != nil {
		s.err = err
		return
	}
	s.n++
}

// Written reports how many records were serialized.
func (s *StreamWriter) Written() uint64 { return s.n }

// Err reports the first encode or write error encountered, without
// flushing. It is the cheap liveness probe for long-lived streams: nil
// means every Observe so far was serialized (possibly still buffered).
func (s *StreamWriter) Err() error { return s.err }

// Flush drains the buffer and returns the first error encountered.
func (s *StreamWriter) Flush() error {
	if s.err != nil {
		return s.err
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
	}
	return s.err
}

// ReadStream parses a JSONL telemetry stream. Blank lines are skipped; a
// malformed line fails with its line number. Lines of the shape
// StreamWriter writes are scanned directly; any other line is decoded by
// encoding/json, so every JSON object with the wire keys reads as before.
func ReadStream(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	// Records collect in chunks that double up to maxChunk and are joined
	// once at the end, so the result is allocated at its final length
	// instead of being regrown and copied by append.
	const maxChunk = 4096
	var full [][]Record
	chunk := make([]Record, 0, 64)
	total, line := 0, 0
	var w wireRecord // one for all lines: json.Unmarshal moves it to the heap
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		w = wireRecord{}
		if !scanRecord(raw, &w) {
			w = wireRecord{}
			if err := json.Unmarshal(raw, &w); err != nil {
				return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
			}
		}
		rec, err := fromWire(&w)
		if err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]Record, 0, min(2*cap(chunk), maxChunk))
		}
		chunk = append(chunk, rec)
		total++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading stream: %w", err)
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]Record, 0, total)
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, chunk...), nil
}

// Replay drives a recorded stream through a fresh OnlineDetector,
// advancing a private engine to each record's event time so hang alarms
// fire exactly as they would have live — offline triage is bit-identical
// to the live run. tail extends the clock past the last record, letting
// timeout verdicts about the stream's silent end ripen (0 = stop at the
// last record: an ended capture is not a hang).
func Replay(records []Record, cfg DetectorConfig, tail sim.Time) *OnlineDetector {
	eng := sim.NewEngine()
	det := NewOnlineDetector(eng, cfg)
	for _, rec := range records {
		if rec.Time > eng.Now() {
			eng.RunUntil(rec.Time)
		}
		det.Observe(rec)
	}
	if tail > 0 {
		eng.RunFor(tail)
	}
	det.Stop()
	return det
}
