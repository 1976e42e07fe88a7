// Parallelism: compile a Fig 14-style job's 3D-parallelism strategy into
// a training-iteration plan and watch what the strategy does to the
// fabric — the same GPT-175B, once as Fig 14's Job3 (TP8/PP8/DP2, GA=16,
// communication diluted to nothing) and once rebalanced toward data
// parallelism, with and without comm/compute overlap. The breakdown
// printed per run is the paper's whole Fig 14 lesson in three numbers:
// compute, pipeline bubble, exposed communication.
package main

import (
	"fmt"
	"log"

	"c4"
	"c4/internal/harness"
)

func main() {
	run := func(par c4.Parallelism, opts c4.PlanOptions) {
		env, err := c4.OpenEnv(c4.EnvOptions{Spec: c4.MultiJobTestbed(8)})
		if err != nil {
			log.Fatal(err)
		}
		// Spread placement: alternating leaf groups, so pipeline and ring
		// edges cross the spine layer (the paper's benchmark placement).
		nodes := harness.InterleavedNodes(par.PP * par.DP)
		spec := c4.JobSpec{
			Name:                 "fig14-style",
			Model:                c4.GPT175B,
			Par:                  par,
			Nodes:                nodes,
			ComputePerMicroBatch: 300 * c4.Millisecond,
			ComputeJitter:        0.02,
			SamplesPerIter:       128,
		}
		compiled, err := c4.CompilePlan(spec, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(compiled)

		j, err := c4.NewJob(c4.JobConfig{
			Engine: env.Eng, Net: env.Net,
			Provider:   env.NewProvider(c4.C4PStatic, 1),
			Spec:       spec,
			Plan:       opts,
			Rand:       c4.NewRand(1),
			QPsPerConn: 8,
		})
		if err != nil {
			log.Fatal(err)
		}
		var rep c4.JobReport
		j.Run(3, func(r c4.JobReport) { rep = r })
		env.Eng.Run()
		fmt.Printf("  iteration %v = compute %v + bubble %v + exposed comm %v (%.1f%%)\n",
			rep.AvgIter, rep.AvgCompute, rep.AvgBubble, rep.AvgExposed, rep.ExposedShare()*100)
		fmt.Printf("  throughput %.1f samples/s\n\n", rep.SamplesPerSec)
	}

	fmt.Println("== Fig 14 Job3: deep pipeline, GA=16 — nothing left to steer")
	run(c4.Parallelism{TP: 8, PP: 8, DP: 2, GA: 16}, c4.PlanOptions{})

	fmt.Println("== Rebalanced toward DP: the gradient volume surfaces")
	run(c4.Parallelism{TP: 8, PP: 2, DP: 8, GA: 4}, c4.PlanOptions{BucketBytes: 256 << 20})

	fmt.Println("== Same strategy with overlap: buckets hide inside backward")
	run(c4.Parallelism{TP: 8, PP: 2, DP: 8, GA: 4},
		c4.PlanOptions{BucketBytes: 256 << 20, Overlap: true})
}
