package main

import (
	"fmt"
	"io"

	"c4/internal/c4p"
	"c4/internal/harness"
	"c4/internal/topo"
)

// runNCCLTest is `c4 nccltest`, the simulated equivalent of NVIDIA's
// nccl-tests collective benchmark used throughout the paper's evaluation:
// it runs repeated ring allreduce operations on the simulated testbed and
// reports per-iteration and mean bus bandwidth. The same benchmark is
// registered in the scenario registry as "nccltest" at its default
// configuration.
//
//	c4 nccltest -nodes 8 -mib 512 -iters 10 -provider c4p
//	c4 nccltest -nodes 8 -provider baseline -seed 3
func runNCCLTest(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("nccltest", stderr)
	var (
		nodes    = fs.Int("nodes", 8, "number of nodes in the ring (8 GPUs each)")
		mib      = fs.Float64("mib", 512, "payload per iteration in MiB")
		iters    = fs.Int("iters", 8, "iterations")
		provider = fs.String("provider", "c4p", "path control: baseline | c4p | c4p-dynamic")
		spines   = fs.Int("spines", 8, "spine switches per rail (8 = 1:1 oversubscription, 4 = 2:1)")
		qps      = fs.Int("qps", 2, "QPs per connection")
		seed     = fs.Int64("seed", 1, "simulation seed")
	)
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	kind, err := c4p.ParseProviderKind(*provider)
	if err != nil {
		fmt.Fprintf(stderr, "c4 nccltest: %v\n", err)
		return 2
	}
	if max := topo.MultiJobTestbed(*spines).Nodes; *nodes > max {
		fmt.Fprintf(stderr, "c4 nccltest: at most %d nodes on this testbed\n", max)
		return 2
	}

	code := 0
	func() {
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(stderr, "c4 nccltest: %v\n", p)
				code = 1
			}
		}()
		res := harness.RunNCCLTest(*seed, harness.NCCLTestSpec{
			Nodes: *nodes, Spines: *spines, MiB: *mib, Iters: *iters,
			Kind: kind, QPsPerConn: *qps,
		})
		fmt.Fprint(stdout, res)
	}()
	return code
}
