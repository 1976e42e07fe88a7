package harness

import (
	"testing"

	"c4/internal/c4p"
	"c4/internal/sim"
	"c4/internal/topo"
)

func TestBenchIterCount(t *testing.T) {
	e := NewEnv(topo.MultiJobTestbed(8))
	b, err := StartBench(e, BenchConfig{
		Nodes: InterleavedNodes(4), Bytes: 64 << 20, Iters: 5,
		Provider: e.NewProvider(c4p.C4PStatic, 1), QPsPerConn: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Eng.Run()
	if b.Series.Len() != 5 {
		t.Fatalf("iterations = %d, want 5", b.Series.Len())
	}
	if b.MeanBusGbps() < 300 {
		t.Fatalf("mean busbw = %.1f", b.MeanBusGbps())
	}
}

func TestBenchDeadline(t *testing.T) {
	e := NewEnv(topo.MultiJobTestbed(8))
	b, err := StartBench(e, BenchConfig{
		Nodes: InterleavedNodes(4), Bytes: 512 << 20, Until: 3 * sim.Second,
		Provider: e.NewProvider(c4p.C4PStatic, 1), QPsPerConn: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Eng.RunUntil(10 * sim.Second)
	if b.Series.Len() == 0 {
		t.Fatal("no iterations before deadline")
	}
	// No new iterations start after the deadline; the in-flight one may
	// finish slightly past it.
	for _, s := range b.Series.Samples {
		if s.T > 3.5 {
			t.Fatalf("iteration completed at %.2fs, past the deadline", s.T)
		}
	}
}

func TestBenchStop(t *testing.T) {
	e := NewEnv(topo.MultiJobTestbed(8))
	b, err := StartBench(e, BenchConfig{
		Nodes: InterleavedNodes(4), Bytes: 512 << 20, Iters: 1000,
		Provider: e.NewProvider(c4p.C4PStatic, 1), QPsPerConn: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Eng.After(2*sim.Second, b.Stop)
	e.Eng.RunUntil(30 * sim.Second)
	count := b.Series.Len()
	if count == 0 || count >= 1000 {
		t.Fatalf("iterations after stop = %d", count)
	}
	e.Eng.RunUntil(60 * sim.Second)
	if b.Series.Len() != count {
		t.Fatal("bench kept running after Stop")
	}
}

func TestBenchValidation(t *testing.T) {
	e := NewEnv(topo.MultiJobTestbed(8))
	if _, err := StartBench(e, BenchConfig{
		Nodes:    nil,
		Provider: e.NewProvider(c4p.C4PStatic, 1),
	}); err == nil {
		t.Fatal("empty node list accepted")
	}
}
