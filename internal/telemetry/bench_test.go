package telemetry

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"c4/internal/accl"
	"c4/internal/c4d"
	"c4/internal/sim"
)

// The incremental-vs-full-recompute benchmark behind online/scale-sweep:
// one streaming DelayMatrix update per record versus one batch
// c4d.Localize pass over a same-sized window, and the JSONL codec's read
// and write sides. Run via `make bench`.

// ringPairs enumerates an n-node ring's (src,dst) edges.
func ringPairs(n int) [][2]int {
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		out[i] = [2]int{i, (i + 1) % n}
	}
	return out
}

func BenchmarkIncrementalObserve(b *testing.B) {
	for _, nodes := range []int{8, 32, 128} {
		pairs := ringPairs(nodes)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			m := NewDelayMatrix(0.4)
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				m.Observe(p[0], p[1], 100)
			}
		})
	}
}

func BenchmarkBatchAnalyzePass(b *testing.B) {
	for _, nodes := range []int{8, 32, 128} {
		var cells []c4d.Cell
		for _, p := range ringPairs(nodes) {
			cells = append(cells, c4d.Cell{Src: p[0], Dst: p[1], BW: 100, Obs: c4d.MinPairObs})
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c4d.Localize(cells, 2)
			}
		})
	}
}

// syntheticRecords is a deterministic 16-node stream in the mix of a
// recorded gpt22b crash run: one comm-create, then about 62% msg, 30%
// coll and 8% wait records, with its field widths.
func syntheticRecords(n int) []Record {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]int, 16)
	for i := range nodes {
		nodes[i] = i
	}
	recs := []Record{{Node: -1, Kind: KindCommCreate, Comm: 1, Nodes: nodes}}
	t := 500 * sim.Millisecond
	for len(recs) < n {
		t += sim.Time(rng.Intn(10_000_000))
		node, peer, seq := rng.Intn(16), rng.Intn(16), 1+len(recs)/64
		switch x := rng.Intn(100); {
		case x < 62:
			recs = append(recs, RecordOfMsg(accl.MsgEvent{Comm: 1, Seq: seq, SrcNode: node, DstNode: peer,
				Sport: uint16(1 + rng.Intn(65535)), QPN: 1000 + rng.Intn(8), Bytes: 2728515625,
				Start: t - sim.Time(rng.Intn(300_000_000)), End: t}))
		case x < 92:
			recs = append(recs, RecordOfColl(accl.CollEvent{Time: t, Comm: 1, Seq: seq, Node: node,
				Op: accl.OpAllReduce, Algo: "ring", Bytes: 5.5e9, Phase: accl.CollPhase(rng.Intn(2))}))
		default:
			recs = append(recs, RecordOfWait(accl.WaitEvent{Time: t, Comm: 1, Seq: seq, Waiter: node, On: peer,
				Dur: sim.Time(rng.Intn(50_000_000))}))
		}
	}
	return recs
}

// encodeStream writes recs as one JSONL stream.
func encodeStream(tb testing.TB, recs []Record) []byte {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, r := range recs {
		sw.Observe(r)
	}
	if err := sw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadStream decodes a 10,000-record stream per op.
func BenchmarkReadStream(b *testing.B) {
	stream := encodeStream(b, syntheticRecords(10_000))
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadStream(bytes.NewReader(stream)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRecord encodes one record per op, as the serving hub
// frames each record of a session's stream.
func BenchmarkEncodeRecord(b *testing.B) {
	recs := syntheticRecords(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeRecord(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}
