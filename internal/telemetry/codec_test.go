package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
	"unicode/utf8"

	"c4/internal/accl"
	"c4/internal/sim"
)

// readStreamJSON is the reference reader: ReadStream with every line
// decoded by encoding/json. ReadStream must return what it returns.
func readStreamJSON(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var w wireRecord
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		rec, err := fromWire(&w)
		if err != nil {
			return nil, fmt.Errorf("telemetry: stream line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading stream: %w", err)
	}
	return out, nil
}

// sameRecord is record equality up to the wire format's blind spots: a
// nil and an empty membership both encode as no nodes key, and a -0 and
// a 0 bytes value both as no bytes key.
func sameRecord(a, b Record) bool {
	if a.Time != b.Time || a.Node != b.Node || a.Kind != b.Kind || a.Comm != b.Comm ||
		!slices.Equal(a.Nodes, b.Nodes) ||
		(a.Coll == nil) != (b.Coll == nil) || (a.Msg == nil) != (b.Msg == nil) || (a.Wait == nil) != (b.Wait == nil) {
		return false
	}
	return (a.Coll == nil || *a.Coll == *b.Coll) &&
		(a.Msg == nil || *a.Msg == *b.Msg) &&
		(a.Wait == nil || *a.Wait == *b.Wait)
}

// FuzzReadStream checks the stream reader against encoding/json:
//   - every line scanRecord accepts, json.Unmarshal accepts too, into an
//     equal wireRecord;
//   - ReadStream returns the reference reader's records, or its error;
//   - every record read re-encodes, byte for byte as json.Marshal would,
//     to a line that reads back as the same record (encode∘decode = id),
//     and that the scanner accepts whenever it holds no escape.
//
// Plain `go test` replays the committed corpus (testdata/fuzz/); `make
// fuzz-smoke` explores further.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			var got wireRecord
			if !scanRecord(line, &got) {
				continue
			}
			var want wireRecord
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("scanner accepted %q, json.Unmarshal refused it: %v", line, err)
			}
			if !reflect.DeepEqual(got, want) || math.Signbit(got.Bytes) != math.Signbit(want.Bytes) {
				t.Fatalf("line %q: scanner read %+v, json.Unmarshal %+v", line, got, want)
			}
		}

		got, err := ReadStream(bytes.NewReader(data))
		want, wantErr := readStreamJSON(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ReadStream error %v, reference %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadStream read %v, reference %v", got, want)
		}

		for _, rec := range got {
			line, err := appendRecord(nil, rec)
			ref, refErr := json.Marshal(toWire(rec))
			if err != nil || refErr != nil || !bytes.Equal(line, ref) {
				t.Fatalf("%v: appendRecord %q (%v), json.Marshal %q (%v)", rec, line, err, ref, refErr)
			}
			back, err := ReadStream(bytes.NewReader(line))
			if err != nil || len(back) != 1 || !sameRecord(back[0], rec) {
				t.Fatalf("%v: line %q read back as %v (%v)", rec, line, back, err)
			}
			var w wireRecord
			if unescaped(line) && !scanRecord(line, &w) {
				t.Fatalf("scanner refused the unescaped line %q", line)
			}
		}
	})
}

// unescaped reports whether line holds no escape and no non-ASCII byte.
func unescaped(line []byte) bool {
	for _, c := range line {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// TestAppendRecordMatchesJSON pins appendRecord to json.Marshal(toWire(r))
// byte for byte, or both failing, on adversarial records.
func TestAppendRecordMatchesJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e-9, 1.5e-300, 5e-324,
		1, -1.25, 123.456, 5.5e9, 2728515625, 1e20, 1e21, -1e21, 1.7976931348623157e308,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	ints := []int{0, 1, -1, math.MinInt, math.MaxInt}
	strs := []string{"", "ring", "<script>&amp;", `say "hi"`, `back\slash`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028para\u2029end", "bad\xffutf8\xe2\x80", "héllo, 世界 🙂", "\u00e9\u200b\ufeff"}

	var recs []Record
	for _, nodes := range [][]int{nil, {}, {0}, {math.MinInt, -1, math.MaxInt}} {
		recs = append(recs, Record{Kind: KindCommCreate, Node: -1, Comm: 1, Nodes: nodes})
	}
	for _, v := range ints {
		recs = append(recs,
			Record{Time: sim.Time(v), Node: v, Kind: KindCommClose, Comm: v, Nodes: []int{7}},
			Record{Time: sim.Time(v), Node: v, Kind: Kind(99), Comm: v},
			Record{Time: sim.Time(v), Kind: KindColl, Coll: &accl.CollEvent{Seq: v, Op: accl.OpAllReduce, Bytes: float64(v), Phase: accl.PhaseComplete}},
			Record{Time: sim.Time(v), Kind: KindWait, Wait: &accl.WaitEvent{Seq: v, Waiter: v, On: v, Dur: sim.Time(v)}},
			Record{Time: sim.Time(v), Kind: KindMsg, Msg: &accl.MsgEvent{Seq: v, SrcNode: v, DstNode: v, Rail: v, Plane: v,
				Sport: uint16(v), QPN: v, Start: sim.Time(v), End: sim.Time(v)}})
	}
	for _, sport := range []uint16{0, 1, 65535} {
		recs = append(recs, Record{Kind: KindMsg, Msg: &accl.MsgEvent{Sport: sport}})
	}
	for _, f := range floats {
		recs = append(recs,
			Record{Kind: KindColl, Coll: &accl.CollEvent{Bytes: f}},
			Record{Kind: KindMsg, Msg: &accl.MsgEvent{Bytes: f}})
	}
	for _, s := range strs {
		recs = append(recs,
			Record{Kind: KindColl, Coll: &accl.CollEvent{Op: accl.OpType(s), Algo: s, Phase: accl.CollPhase(len(s) % 3)}})
	}

	for _, r := range recs {
		want, wantErr := json.Marshal(toWire(r))
		got, err := appendRecord([]byte("prefix"), r)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: appendRecord error %v, json.Marshal %v", r, err, wantErr)
		}
		if err != nil {
			if _, err := EncodeRecord(r); err == nil {
				t.Fatalf("%+v: EncodeRecord accepted what json.Marshal refuses", r)
			}
			continue
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%+v:\nappendRecord %s\njson.Marshal %s", r, got[len("prefix"):], want)
		}
		line, err := EncodeRecord(r)
		if err != nil || !bytes.Equal(line, append(want, '\n')) {
			t.Fatalf("%+v: EncodeRecord %q (%v), want %q", r, line, err, want)
		}
	}
}

// TestStreamWriterAllocatesNothing pins the writer's steady state: a
// record is appended in place into the bufio buffer.
func TestStreamWriterAllocatesNothing(t *testing.T) {
	recs := syntheticRecords(256)
	sw := NewStreamWriter(io.Discard)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sw.Observe(recs[i%len(recs)])
		i++
	})
	if allocs != 0 || sw.Err() != nil {
		t.Fatalf("StreamWriter.Observe: %v allocs per record (err %v), want 0", allocs, sw.Err())
	}
}

// TestReadStreamAllocations pins the reader's allocations: one payload
// per record, plus a few for the line buffer and the result's chunks.
func TestReadStreamAllocations(t *testing.T) {
	const n = 2000
	stream := encodeStream(t, syntheticRecords(n))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadStream(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n+32 {
		t.Fatalf("ReadStream: %v allocs for %d records, want at most %d", allocs, n, n+32)
	}
}
