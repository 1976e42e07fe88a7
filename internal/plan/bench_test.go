package plan

import (
	"testing"

	"c4/internal/sim"
	"c4/internal/workload"
)

// BenchmarkExecIter runs one iteration per op on the arithmetic stub
// fabric, so it times the executor alone — slot scheduling, tensor
// shipping, bucket bookkeeping and its per-iteration state — at two Fig 14
// shapes: Job1's TP8×DP16 GA=1 (also every fault campaign's job) and
// Job3's TP8/PP8/DP2/GA16 deep pipeline.
func BenchmarkExecIter(b *testing.B) {
	nodes := make([]int, 16)
	for i := range nodes {
		nodes[i] = i
	}
	jobs := workload.Fig14Jobs(nodes)
	for _, spec := range []workload.JobSpec{jobs[0], jobs[2]} {
		b.Run(spec.Name, func(b *testing.B) {
			p, err := Compile(spec, Options{})
			if err != nil {
				b.Fatal(err)
			}
			tm := IterTiming{Scale: make([][]float64, p.DP), Extra: make([][]sim.Time, p.DP)}
			for d := range tm.Scale {
				tm.Scale[d] = make([]float64, p.PP)
				tm.Extra[d] = make([]sim.Time, p.PP)
				for s := range tm.Scale[d] {
					tm.Scale[d][s] = 1 + 0.01*float64(d*p.PP+s)
				}
			}
			eng := sim.NewEngine()
			fab := stubFabric(eng, sim.Millisecond, 1e-6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ExecIter(nil, fab, tm, nil)
				eng.Run()
			}
		})
	}
}
