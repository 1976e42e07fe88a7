package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"c4/internal/accl"
)

// The JSONL codec without reflection. appendRecord writes the bytes
// json.Marshal(toWire(r)) would, and scanRecord reads back the flat line
// shape appendRecord writes. encoding/json stays the reference for both:
// a non-finite bytes value takes json.Marshal's error, and any line
// scanRecord does not fully accept is left to json.Unmarshal.

// appendRecord appends r's JSONL line, without the newline, to dst. It
// writes wireRecord's keys in field order straight from r, applying
// encoding/json's rules: omitempty, integers in decimal, ES6-style floats
// and HTML-safe string escaping.
func appendRecord(dst []byte, r Record) ([]byte, error) {
	var size float64
	switch r.Kind {
	case KindColl:
		size = r.Coll.Bytes
	case KindMsg:
		size = r.Msg.Bytes
	}
	if math.IsNaN(size) || math.IsInf(size, 0) {
		// encoding/json refuses these; return its own error.
		_, err := json.Marshal(toWire(r))
		return nil, err
	}

	dst = append(dst, `{"t_ns":`...)
	dst = strconv.AppendInt(dst, int64(r.Time), 10)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, r.Kind.String())
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(r.Node), 10)
	dst = append(dst, `,"comm":`...)
	dst = strconv.AppendInt(dst, int64(r.Comm), 10)
	switch r.Kind {
	case KindCommCreate:
		if len(r.Nodes) > 0 {
			dst = append(dst, `,"nodes":[`...)
			for i, n := range r.Nodes {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendInt(dst, int64(n), 10)
			}
			dst = append(dst, ']')
		}
	case KindColl:
		ev := r.Coll
		phase := "arrive"
		if ev.Phase == accl.PhaseComplete {
			phase = "complete"
		}
		dst = appendIntKey(dst, `,"seq":`, int64(ev.Seq))
		dst = appendStringKey(dst, `,"op":`, string(ev.Op))
		dst = appendStringKey(dst, `,"phase":`, phase)
		dst = appendStringKey(dst, `,"algo":`, ev.Algo)
		dst = appendFloatKey(dst, `,"bytes":`, size)
	case KindMsg:
		ev := r.Msg
		dst = appendIntKey(dst, `,"seq":`, int64(ev.Seq))
		dst = appendFloatKey(dst, `,"bytes":`, size)
		dst = appendIntKey(dst, `,"src":`, int64(ev.SrcNode))
		dst = appendIntKey(dst, `,"dst":`, int64(ev.DstNode))
		dst = appendIntKey(dst, `,"rail":`, int64(ev.Rail))
		dst = appendIntKey(dst, `,"plane":`, int64(ev.Plane))
		dst = appendIntKey(dst, `,"sport":`, int64(ev.Sport))
		dst = appendIntKey(dst, `,"qpn":`, int64(ev.QPN))
		dst = appendIntKey(dst, `,"start_ns":`, int64(ev.Start))
		dst = appendIntKey(dst, `,"end_ns":`, int64(ev.End))
	case KindWait:
		ev := r.Wait
		dst = appendIntKey(dst, `,"seq":`, int64(ev.Seq))
		dst = appendIntKey(dst, `,"waiter":`, int64(ev.Waiter))
		dst = appendIntKey(dst, `,"on":`, int64(ev.On))
		dst = appendIntKey(dst, `,"dur_ns":`, int64(ev.Dur))
	}
	return append(dst, '}'), nil
}

// The append*Key helpers write `,"key":value`, or nothing for a zero
// value, as omitempty does.

func appendIntKey(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendStringKey(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendFloatKey formats a finite f as encoding/json does: 'f' for
// 1e-6 <= |f| < 1e21, otherwise 'e' with a one-digit negative exponent
// written as e-9, not e-09.
func appendFloatKey(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	dst = append(dst, key...)
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as json.Marshal
// escapes it: quote, backslash and control bytes, the HTML-sensitive
// <, > and &, U+2028 and U+2029, and each invalid UTF-8 byte as U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), "\\ufffd"...)
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// scanRecord fills a zero w from one line of the flat shape appendRecord
// writes, and reports whether the whole line had that shape: a JSON object
// with no whitespace whose keys are wireRecord's exact-case keys, in any
// order, each holding a JSON integer that fits its field, a JSON number
// (bytes), a string with no escape, control or non-ASCII byte, or an
// integer array (nodes). A repeated key keeps its last value, as
// json.Unmarshal does. On false w is partly filled; the caller decodes the
// line with json.Unmarshal instead.
func scanRecord(line []byte, w *wireRecord) bool {
	n := len(line)
	if n < 2 || line[0] != '{' || line[n-1] != '}' {
		return false
	}
	s := scanner{b: line[:n-1], i: 1}
	if s.i == len(s.b) {
		return true // {}
	}
	for {
		key, ok := s.str()
		if !ok || !s.byte(':') {
			return false
		}
		switch string(key) {
		case "t_ns":
			w.TNs, ok = s.int64(math.MinInt64, math.MaxInt64)
		case "kind":
			w.Kind, ok = s.name()
		case "node":
			w.Node, ok = s.int()
		case "comm":
			w.Comm, ok = s.int()
		case "nodes":
			w.Nodes, ok = s.ints()
		case "seq":
			w.Seq, ok = s.int()
		case "op":
			w.Op, ok = s.name()
		case "phase":
			w.Phase, ok = s.name()
		case "algo":
			w.Algo, ok = s.name()
		case "bytes":
			w.Bytes, ok = s.float()
		case "src":
			w.Src, ok = s.int()
		case "dst":
			w.Dst, ok = s.int()
		case "rail":
			w.Rail, ok = s.int()
		case "plane":
			w.Plane, ok = s.int()
		case "sport":
			w.Sport, ok = s.uint16()
		case "qpn":
			w.QPN, ok = s.int()
		case "start_ns":
			w.StartNs, ok = s.int64(math.MinInt64, math.MaxInt64)
		case "end_ns":
			w.EndNs, ok = s.int64(math.MinInt64, math.MaxInt64)
		case "waiter":
			w.Waiter, ok = s.int()
		case "on":
			w.On, ok = s.int()
		case "dur_ns":
			w.DurNs, ok = s.int64(math.MinInt64, math.MaxInt64)
		default:
			return false
		}
		if !ok {
			return false
		}
		if s.i == len(s.b) {
			return true
		}
		if !s.byte(',') {
			return false
		}
	}
}

// scanner walks the inside of one object line (its closing brace cut off,
// so every value ends at a comma or at the end of b).
type scanner struct {
	b []byte
	i int
}

// byte consumes c if it is next.
func (s *scanner) byte(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string holding no escape, control or non-ASCII byte, and
// returns its contents.
func (s *scanner) str() ([]byte, bool) {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		return nil, false
	}
	start := i + 1
	for i = start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], true
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// name scans a string value, sharing a known kind, op, phase or algo
// string instead of allocating a copy per line.
func (s *scanner) name() (string, bool) {
	b, ok := s.str()
	if !ok {
		return "", false
	}
	for _, k := range knownNames {
		if string(b) == k {
			return k, true
		}
	}
	return string(b), true
}

// knownNames are the strings the simulator writes into kind, op, phase
// and algo, most frequent first.
var knownNames = []string{
	"msg", "coll", "wait", "arrive", "complete", "ring", "tree", "p2p",
	string(accl.OpAllReduce), string(accl.OpAllGather), string(accl.OpReduceScatter),
	string(accl.OpBroadcast), string(accl.OpSendRecv), "comm-create", "comm-close",
}

// int64 scans a JSON integer literal in [lo, hi].
func (s *scanner) int64(lo, hi int64) (int64, bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && isDigit(b[i]); i++ {
		if i-start == 19 {
			return 0, false // 20 digits: past any int64
		}
		u = u*10 + uint64(b[i]-'0')
	}
	if i == start || i-start > 1 && b[start] == '0' {
		return 0, false
	}
	s.i = i
	var v int64
	switch {
	case neg && u <= 1<<63:
		v = int64(-u) // -(1<<63) wraps to math.MinInt64
	case !neg && u <= math.MaxInt64:
		v = int64(u)
	default:
		return 0, false
	}
	return v, lo <= v && v <= hi
}

// int scans an integer that fits an int.
func (s *scanner) int() (int, bool) {
	v, ok := s.int64(math.MinInt, math.MaxInt)
	return int(v), ok
}

// uint16 scans an unsigned integer that fits a uint16. Like
// strconv.ParseUint, behind json.Unmarshal, it refuses any sign, "-0" too.
func (s *scanner) uint16() (uint16, bool) {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		return 0, false
	}
	v, ok := s.int64(0, math.MaxUint16)
	return uint16(v), ok
}

// ints scans an array of integers that fit an int. An empty array gives
// an empty, non-nil slice, as json.Unmarshal does.
func (s *scanner) ints() ([]int, bool) {
	if !s.byte('[') {
		return nil, false
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	n := 0
	if end > 0 {
		n = bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
	}
	out := make([]int, 0, n)
	if s.byte(']') {
		return out, true
	}
	for {
		v, ok := s.int()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.byte(']') {
			return out, true
		}
		if !s.byte(',') {
			return nil, false
		}
	}
}

// float scans a JSON number and converts it as json.Unmarshal does, with
// strconv.ParseFloat; an integer of at most 15 digits is exact in a
// float64 and converts directly. A number out of float64's range fails.
func (s *scanner) float() (float64, bool) {
	start := s.i
	neg := s.byte('-')
	intStart := s.i
	switch {
	case s.byte('0'):
	case s.i < len(s.b) && s.b[s.i] >= '1' && s.b[s.i] <= '9':
		s.digits()
	default:
		return 0, false
	}
	intEnd := s.i
	if s.byte('.') && !s.digits() {
		return 0, false
	}
	if s.byte('e') || s.byte('E') {
		if !s.byte('+') {
			s.byte('-')
		}
		if !s.digits() {
			return 0, false
		}
	}
	if s.i == intEnd && intEnd-intStart <= 15 {
		var u uint64
		for _, c := range s.b[intStart:intEnd] {
			u = u*10 + uint64(c-'0')
		}
		f := float64(u)
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return f, err == nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && isDigit(s.b[s.i]) {
		s.i++
	}
	return s.i > start
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
