package c4

// One benchmark per registered scenario — every table, figure, ablation
// and scenario family of the study — named as the registry names it, so
// `go test -bench=. -benchmem` regenerates the whole study and reports the
// simulation cost of each experiment under the names bench/perf uses
// (scenario.<name>.ms). The seed is fixed: every iteration still performs
// the full simulation (results flow into CheckShape, so nothing can be
// elided), and shape bounds are statistical — sweeping thousands of seeds
// under -benchtime would eventually (and correctly) find a >4σ Monte-Carlo
// draw, which is fuzzing, not benchmarking. Seed sweeps live in the
// harness tests.

import (
	"context"
	"testing"

	"c4/internal/scenario"
)

const benchSeed = 1

func BenchmarkScenarios(b *testing.B) {
	for _, s := range scenario.All() {
		b.Run(s.Name, func(b *testing.B) {
			if s.Slow && testing.Short() {
				b.Skip("slow scenario; skipped under -short")
			}
			for i := 0; i < b.N; i++ {
				rep := scenario.RunOne(context.Background(), s, benchSeed)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
				if rep.ShapeErr != nil {
					b.Fatal(rep.ShapeErr)
				}
			}
		})
	}
}
