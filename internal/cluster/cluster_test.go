package cluster

import (
	"math"
	"testing"

	"c4/internal/sim"
)

func TestMachinePerf(t *testing.T) {
	m := &Machine{Healthy: true, GPUs: []GPU{{true, 1}, {true, 0.6}, {false, 0.1}}}
	if got := m.Perf(); got != 0.6 {
		t.Fatalf("perf = %v, want 0.6 (slowest healthy GPU)", got)
	}
}

func TestIsolateAndRestore(t *testing.T) {
	c := NewCluster(4, 8, 2)
	if c.SpareCount() != 2 {
		t.Fatalf("spares = %d", c.SpareCount())
	}
	r := c.Isolate(1)
	if r != 4 {
		t.Fatalf("replacement = %d, want first spare (4)", r)
	}
	if !c.Machines[1].Isolated || c.Machines[1].Healthy {
		t.Fatal("machine 1 not isolated")
	}
	if c.SpareCount() != 1 {
		t.Fatalf("spares = %d after isolate", c.SpareCount())
	}
	c.Restore(1)
	if c.Machines[1].Isolated || !c.Machines[1].Healthy {
		t.Fatal("machine 1 not restored")
	}
	if c.SpareCount() != 2 {
		t.Fatalf("spares = %d after restore", c.SpareCount())
	}
	// Exhaust the pool.
	c.Isolate(0)
	c.Isolate(2)
	if got := c.Isolate(3); got != -1 {
		t.Fatalf("empty pool returned %d, want -1", got)
	}
}

func TestHealthy(t *testing.T) {
	c := NewCluster(4, 8, 1)
	if !c.Healthy(0) || !c.Healthy(4) {
		t.Fatal("fresh machines should be healthy")
	}
	if c.Healthy(-1) || c.Healthy(5) {
		t.Fatal("out-of-range nodes reported healthy")
	}
	c.Isolate(2)
	if c.Healthy(2) {
		t.Fatal("isolated machine reported healthy")
	}
	c.Restore(2)
	if !c.Healthy(2) {
		t.Fatal("restored machine reported unhealthy")
	}
}

func TestFaultKindMetadata(t *testing.T) {
	for k := FaultKind(0); k < numFaultKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no label", k)
		}
		if k.UserView() == "" {
			t.Fatalf("kind %d has no user view", k)
		}
	}
	if !FaultCUDAError.Critical() || FaultGPUDegrade.Critical() {
		t.Fatal("criticality misclassified")
	}
	if FaultCUDAError.UserView() != "NCCL Error" {
		t.Fatalf("CUDA errors surface as %q, want NCCL Error", FaultCUDAError.UserView())
	}
	if FaultNetworkOther.UserView() != "Network Error" {
		t.Fatal("network-other user view wrong")
	}
}

func TestTableIMixSumsToOne(t *testing.T) {
	var sum float64
	for _, m := range TableIMix() {
		sum += m.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mix weights sum to %v", sum)
	}
}

func TestInjectorRateScalesWithFleet(t *testing.T) {
	small := NewInjector(InjectorConfig{Rand: sim.NewRand(1), Nodes: 512, GPUsPerNode: 8})
	big := NewInjector(InjectorConfig{Rand: sim.NewRand(1), Nodes: 1024, GPUsPerNode: 8})
	if small.MeanInterarrival() <= big.MeanInterarrival() {
		t.Fatal("bigger fleet should fail more often")
	}
	// 4096 GPUs at 40/month -> mean inter-arrival 18 h.
	ref := NewInjector(InjectorConfig{Rand: sim.NewRand(1), Nodes: 512, GPUsPerNode: 8})
	want := 30 * sim.Day / 40
	if ref.MeanInterarrival() != want {
		t.Fatalf("mean = %v, want %v", ref.MeanInterarrival(), want)
	}
}

func TestInjectorReproducesTableI(t *testing.T) {
	in := NewInjector(InjectorConfig{Rand: sim.NewRand(42), Nodes: 512, GPUsPerNode: 8})
	const n = 20000
	counts := map[FaultKind]int{}
	local := 0
	var at sim.Time
	for i := 0; i < n; i++ {
		f := in.Next(at)
		if f.Time < at {
			t.Fatalf("fault %d at %v, before the previous one at %v", i, f.Time, at)
		}
		at = f.Time
		counts[f.Kind]++
		if f.Local {
			local++
		}
		if f.Node < 0 || f.Node >= 512 {
			t.Fatalf("victim node %d out of range", f.Node)
		}
	}
	check := func(kind FaultKind, want float64) {
		got := float64(counts[kind]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("%v proportion = %.3f, want %.3f", kind, got, want)
		}
	}
	check(FaultCUDAError, 0.125)
	check(FaultECCNVLink, 0.275)
	check(FaultNCCLTimeout, 0.20)
	check(FaultACKTimeout, 0.275)
	check(FaultNetworkOther, 0.125)
	if got := float64(local) / n; math.Abs(got-0.825) > 0.01 {
		t.Fatalf("locality = %.3f, want 0.825", got)
	}
}

func TestInjectorSampleWindow(t *testing.T) {
	in := NewInjector(InjectorConfig{Rand: sim.NewRand(7), Nodes: 512, GPUsPerNode: 8})
	month := 30 * sim.Day
	faults := in.SampleWindow(month)
	// Expect ~40; Poisson sd ~6.3.
	if len(faults) < 15 || len(faults) > 75 {
		t.Fatalf("faults in month = %d, want ≈40", len(faults))
	}
	var prev sim.Time
	for _, f := range faults {
		if f.Time < prev || f.Time >= month {
			t.Fatalf("fault time %v out of order/window", f.Time)
		}
		prev = f.Time
	}
}

func TestInjectorDefaults(t *testing.T) {
	in := NewInjector(InjectorConfig{Nodes: 10})
	f := in.Next(0)
	if f.Node < 0 || f.Node >= 10 {
		t.Fatalf("node %d out of range", f.Node)
	}
	if in.MeanInterarrival() <= 0 {
		t.Fatal("mean inter-arrival must be positive")
	}
}
