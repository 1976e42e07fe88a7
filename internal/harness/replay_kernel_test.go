package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"

	"c4/internal/netsim"
	"c4/internal/scenario"
)

// kernelGolden pins one scenario run: the SHA-256 digest of its rendering
// and event count, recorded from the per-flow kernel before the flow-class
// kernel became netsim's only production path (for plan/* and fig14:
// with the per-flow kernel installed as the production kernel).
type kernelGolden struct {
	name   string
	seed   int64
	sha256 string
	slow   bool // run only outside -short
}

var kernelGoldens = []kernelGolden{
	{"fig9", 1, "e2f128c271136f61cf4d81d0685d2d21e25a606e750fcf206376dc8d493f77d1", false},
	{"fig12", 1, "93bfaa728af5d31dedcabf595aeed22787a46d86194c031ae5bac5b05831a26c", false},
	{"tenancy/collision-sweep", 1, "340804ec7fac4c813a24af9e526d178676bfa9e97e1280d76ae172e48bd59b3c", false},
	{"tenancy/placement-compare", 1, "7ba344d0cf03b5f2780ffc172821ee22c85c69db6aab962ae952a953f55585f2", false},
	{"plan/bucket-sweep", 1, "3d6b84c0b4e750b5553c13a2d51a763ea2435ccde1c8d3143eabf25540ee2688", false},
	{"plan/overlap-ablation", 1, "8c48c35663230b4e86a0231c313eff4b9b7112c9c124ec553efa37c2dabd1c7b", false},
	{"campaign/mixed", 1, "d3701927afb610a0bba1453ff902b07b718574e424f95141a0b3da784beba8a9", true},
	// At this seed two link components reach bottleneck shares within
	// netsim's rate epsilon of each other. Each fills at its own share, so
	// this golden was recorded from the per-flow kernel with per-component
	// filling rounds.
	{"fig14", 103, "0fe2e686898f7879ed04e452901cd55a99bd6dad94e246c731da12680f98c282", true},
}

// TestAggregatedKernelReplaysFamilies is the whole-repo equivalence proof
// for the flow-class kernel: scenarios that build their own engines and
// networks internally are replayed, and their renderings and event counts
// must hash to the per-flow goldens. Every recompute's allocation is also
// checked against the max-min certificate (via the ForceMaxMinCheck
// override), which needs no oracle and re-reads the components a
// recompute left untouched.
func TestAggregatedKernelReplaysFamilies(t *testing.T) {
	for _, g := range kernelGoldens {
		if g.slow && testing.Short() {
			continue
		}
		s, ok := scenario.Get(g.name)
		if !ok {
			t.Fatalf("scenario %q not registered", g.name)
		}
		var violations atomic.Int64
		restore := netsim.ForceMaxMinCheck(func(err error) {
			if violations.Add(1) == 1 {
				t.Errorf("scenario %s seed %d: %v", g.name, g.seed, err)
			}
		})
		rep := scenario.RunOne(context.Background(), s, g.seed)
		restore()
		if n := violations.Load(); n > 0 {
			t.Errorf("scenario %s seed %d: %d max-min certificate violations", g.name, g.seed, n)
		}
		got := rep.Result.String()
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d", got, rep.Events)))); sum != g.sha256 {
			t.Errorf("scenario %s seed %d (%d events) diverged from the per-flow golden: sha256 %s, want %s\n%s",
				g.name, g.seed, rep.Events, sum, g.sha256, got)
		}
	}
}
