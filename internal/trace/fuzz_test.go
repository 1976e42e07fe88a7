package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseChrome checks the trace reader on random bytes:
//   - it never panics;
//   - a trace it accepts, written back with WriteChrome, parses to equal
//     spans;
//   - Profile, and CriticalPath from every span as the root over the
//     same Forest, return.
//
// Plain `go test` replays the committed corpus (testdata/fuzz/); `make
// fuzz-smoke` explores further.
func FuzzParseChrome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ParseChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteChrome(&buf, spans); err != nil {
			t.Fatal(err)
		}
		back, err := ParseChrome(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written trace refused: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, spans) {
			t.Fatalf("written trace read back as\n%+v\nwant\n%+v", back, spans)
		}
		f := NewForest(spans)
		f.Profile()
		for _, root := range spans {
			f.CriticalPath(root)
		}
	})
}
