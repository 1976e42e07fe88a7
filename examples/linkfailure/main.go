// Link failure: the paper's Fig 12 scenario as a runnable program. Eight
// tenants share a 1:1 fat-tree; one of the eight uplinks of a loaded leaf
// switch dies mid-run. With static traffic engineering the orphaned flows
// rehash onto random survivors and pile up; with C4P dynamic load balance
// the master re-places them and ACCL shifts bytes toward the fastest
// paths, recovering close to the 7/8 ideal.
package main

import (
	"fmt"
	"log"

	"c4"
	"c4/internal/harness"
	"c4/internal/metrics"
	"c4/internal/topo"
)

func main() {
	const (
		failAt  = 20 * c4.Second
		horizon = 60 * c4.Second
	)
	run := func(kind c4.ProviderKind, qps int) (pre, post float64) {
		env, err := c4.OpenEnv(c4.EnvOptions{Spec: c4.MultiJobTestbed(8)})
		if err != nil {
			log.Fatal(err)
		}
		prov := env.NewProvider(kind, 1)
		var benches []*harness.Bench
		for i := 0; i < 8; i++ {
			b, err := harness.StartBench(env, harness.BenchConfig{
				Nodes: []int{i, i + 8}, Bytes: 512 << 20, Until: horizon,
				Provider: prov, QPsPerConn: qps, Seed: int64(i),
			})
			if err != nil {
				panic(err)
			}
			benches = append(benches, b)
		}
		env.Eng.Schedule(failAt, func() {
			leaf := env.Topo.LeafAt(0, 0, 0)
			env.Net.SetLinkUp(leaf.Ups[2], false)
			env.Net.SetLinkUp(leaf.Downs[2], false)
			// The withdrawal remaps the leaf's ECMP buckets: every flow
			// through it re-resolves its path.
			for _, b := range benches {
				b.Comm.RefreshPaths(func(p *topo.Path) bool {
					return p.Spine != nil && (p.SrcPort.Leaf == leaf || p.DstPort.Leaf == leaf)
				})
			}
		})
		env.Eng.RunUntil(horizon + 20*c4.Second)

		var preV, postV []float64
		for _, b := range benches {
			for _, s := range b.Series.Samples {
				if s.T < failAt.Seconds() {
					preV = append(preV, s.V)
				} else if s.T > (failAt + 10*c4.Second).Seconds() {
					postV = append(postV, s.V)
				}
			}
		}
		return metrics.Mean(preV), metrics.Mean(postV)
	}

	sPre, sPost := run(c4.C4PStatic, 2)
	dPre, dPost := run(c4.C4PDynamic, 8)
	fmt.Printf("one of 8 uplinks fails at %v (ideal after failure: 7/8 of peak)\n\n", failAt)
	fmt.Printf("%-28s %10s %10s\n", "mode", "pre-fail", "post-fail")
	fmt.Printf("%-28s %9.1f %9.1f Gbps\n", "static traffic engineering", sPre, sPost)
	fmt.Printf("%-28s %9.1f %9.1f Gbps\n", "dynamic load balance", dPre, dPost)
	fmt.Printf("\ndynamic recovers %+.1f%% over static\n", (dPost/sPost-1)*100)
}
