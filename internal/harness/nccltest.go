package harness

import (
	"fmt"
	"strings"

	"c4/internal/accl"
	"c4/internal/c4p"
	"c4/internal/metrics"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// BenchConfig describes one "nccltest"-style collective benchmark: a ring
// allreduce repeated back-to-back, reporting per-iteration bus bandwidth —
// the tool behind Figs 9, 10 and 12.
type BenchConfig struct {
	Nodes      []int
	Bytes      float64 // payload per iteration
	Iters      int     // 0 = run until Until
	Until      sim.Time
	Provider   accl.PathProvider
	QPsPerConn int
	Seed       int64
}

// Bench is a running collective benchmark.
type Bench struct {
	Comm   *accl.Communicator
	Series *metrics.Series // busbw (Gbps) per iteration, timestamped at completion
	stop   bool
}

// StartBench launches the benchmark loop on the environment; iterations
// run back-to-back until the configured count or deadline.
func StartBench(e *Env, cfg BenchConfig) (*Bench, error) {
	comm, err := accl.NewCommunicator(accl.Config{
		Engine: e.Eng, Net: e.Net, Provider: cfg.Provider,
		Rails: []int{0}, QPsPerConn: cfg.QPsPerConn, Rand: sim.NewRand(cfg.Seed),
	}, cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("harness: bench communicator: %w", err)
	}
	b := &Bench{Comm: comm, Series: &metrics.Series{Name: "busbw_gbps"}}
	done := 0
	var iterate func()
	iterate = func() {
		if b.stop {
			return
		}
		if cfg.Iters > 0 && done >= cfg.Iters {
			return
		}
		if cfg.Until > 0 && e.Eng.Now() >= cfg.Until {
			return
		}
		comm.AllReduce(cfg.Bytes, nil, func(r accl.Result) {
			done++
			b.Series.Add(r.End.Seconds(), r.BusGbps)
			iterate()
		})
	}
	iterate()
	return b, nil
}

// Stop halts the loop after the in-flight iteration.
func (b *Bench) Stop() { b.stop = true }

// MeanBusGbps is the benchmark's average bus bandwidth.
func (b *Bench) MeanBusGbps() float64 { return b.Series.Mean() }

// NCCLTestSpec parameterizes the standalone nccltest scenario: the
// simulated equivalent of one NVIDIA nccl-tests invocation.
type NCCLTestSpec struct {
	Nodes      int
	Spines     int
	MiB        float64
	Iters      int
	Kind       c4p.ProviderKind
	QPsPerConn int
}

// DefaultNCCLTest is the 8-node C4P configuration the paper's
// microbenchmarks run at.
func DefaultNCCLTest() NCCLTestSpec {
	return NCCLTestSpec{Nodes: 8, Spines: 8, MiB: 512, Iters: 8, Kind: c4p.C4PStatic, QPsPerConn: 2}
}

// NCCLTestResult is the per-iteration busbw log of one benchmark run.
type NCCLTestResult struct {
	Spec   NCCLTestSpec
	GPUs   int
	Series *metrics.Series
}

// RunNCCLTest executes one benchmark configuration.
func RunNCCLTest(seed int64, spec NCCLTestSpec) NCCLTestResult {
	return runNCCLTest(scenario.NewCtx(seed), spec)
}

func runNCCLTest(ctx *scenario.Ctx, spec NCCLTestSpec) NCCLTestResult {
	fab := topo.MultiJobTestbed(spec.Spines)
	if spec.Nodes > fab.Nodes {
		panic(fmt.Sprintf("at most %d nodes on this testbed, got %d", fab.Nodes, spec.Nodes))
	}
	e := newEnv(ctx, fab)
	b, err := StartBench(e, BenchConfig{
		Nodes: InterleavedNodes(spec.Nodes), Bytes: spec.MiB * (1 << 20), Iters: spec.Iters,
		Provider: e.NewProvider(spec.Kind, ctx.Seed), QPsPerConn: spec.QPsPerConn, Seed: ctx.Seed,
	})
	if err != nil {
		panic(err)
	}
	e.Eng.Run()
	return NCCLTestResult{Spec: spec, GPUs: spec.Nodes * fab.GPUsPerNode, Series: b.Series}
}

// MeanBusGbps is the run's average bus bandwidth.
func (r NCCLTestResult) MeanBusGbps() float64 { return r.Series.Mean() }

// String renders the nccl-tests-style iteration log.
func (r NCCLTestResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# nccltest (simulated) — allreduce, ring, %d nodes (%d GPUs), %v, %.0f MiB\n",
		r.Spec.Nodes, r.GPUs, r.Spec.Kind, r.Spec.MiB)
	fmt.Fprintf(&sb, "%-6s %-12s %-12s\n", "iter", "t(s)", "busbw(Gbps)")
	for i, s := range r.Series.Samples {
		fmt.Fprintf(&sb, "%-6d %-12.3f %-12.1f\n", i, s.T, s.V)
	}
	fmt.Fprintf(&sb, "# mean busbw: %.1f Gbps\n", r.MeanBusGbps())
	return sb.String()
}

// CheckShape validates that the run completed every iteration and, for the
// planned C4P configurations, that busbw sits near the NVLink-bounded peak.
func (r NCCLTestResult) CheckShape() error {
	if r.Series.Len() != r.Spec.Iters {
		return fmt.Errorf("nccltest: %d iterations completed, want %d", r.Series.Len(), r.Spec.Iters)
	}
	if r.Spec.Kind != c4p.Baseline && r.Spec.Spines >= 8 {
		if m := r.MeanBusGbps(); m < 330 || m > 370 {
			return fmt.Errorf("nccltest: C4P busbw %.1f Gbps, want ≈360", m)
		}
	}
	return nil
}
