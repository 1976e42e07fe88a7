package accl

import (
	"testing"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// warmRing builds a 4-node cross-group ring on the testbed (one rail, two
// QPs per connection, adaptive weights on), runs one allreduce so its
// connections, flow classes and scratch exist, and returns a function
// that runs the next allreduce to completion.
func warmRing(tb testing.TB) func() {
	tb.Helper()
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	net := netsim.New(eng, tp)
	prov := newPlannedProvider(tp)
	prov.adaptive = true
	c, err := NewCommunicator(Config{
		Engine: eng, Net: net, Provider: prov, Sink: NullSink{},
	}, []int{0, 2, 4, 6})
	if err != nil {
		tb.Fatal(err)
	}
	completed := 0
	done := func(Result) { completed++ }
	run := func() {
		c.AllReduce(64*MiB, nil, done)
		eng.Run()
	}
	run()
	if completed != 1 {
		tb.Fatal("warm-up allreduce did not complete")
	}
	return run
}

// A warm ring allreduce allocates per op only: the Op, its arrival times,
// its members' arrival records, its ring edges and the edges' completion
// callback (5). Each edge's transfer and shares come from the
// communicator's free lists, and each share's Flow and admission Event
// from the network's.
func TestWarmRingAllReduceAllocs(t *testing.T) {
	run := warmRing(t)
	const budget = 5
	if allocs := testing.AllocsPerRun(20, run); allocs > budget {
		t.Fatalf("warm ring allreduce: %v allocs, want at most %v", allocs, budget)
	}
}

// BenchmarkRingAllReduce runs one warm 4-node ring allreduce per
// iteration: op set-up, the transfer path down to netsim admission, every
// flow's completion and the per-share transport records.
func BenchmarkRingAllReduce(b *testing.B) {
	run := warmRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
