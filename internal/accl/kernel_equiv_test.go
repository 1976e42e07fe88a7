package accl

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"c4/internal/netsim"
	"c4/internal/sim"
	"c4/internal/topo"
)

// collectiveGolden is the SHA-256 digest of the outcome below, recorded
// from the per-flow kernel before the flow-class kernel became netsim's
// only production path.
const collectiveGolden = "37f658c677271dbffbfdb8a861365ab01fc14f6137a98385261c61a861f4e289"

// TestCollectivesEquivalentAcrossKernels runs a multi-op collective
// workload — a cross-group ring allreduce, an allgather, and a broadcast
// tree racing on one fabric — on the flow-class kernel. The collective
// layer sees the network only through flow completion instants, so every
// result (start, end, busbw) and the engine's fired-event count must match
// the per-flow golden exactly, and every recompute's allocation must pass
// the max-min certificate.
func TestCollectivesEquivalentAcrossKernels(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	restore := netsim.ForceMaxMinCheck(func(err error) { t.Fatal(err) })
	net := netsim.New(eng, tp)
	restore()
	rec := &Recorder{}
	mk := func(nodes []int) *Communicator {
		c, err := NewCommunicator(Config{
			Engine: eng, Net: net, Provider: newPlannedProvider(tp), Sink: rec,
		}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var outcome string
	done := func(op string) func(Result) {
		return func(r Result) {
			outcome += fmt.Sprintf("%s: start=%d end=%d bus=%v\n", op, r.Start, r.End, r.BusGbps)
		}
	}
	mk([]int{0, 2, 4, 6}).AllReduce(256*MiB, nil, done("allreduce"))
	mk([]int{1, 3, 5, 7}).AllGather(64*MiB, nil, done("allgather"))
	mk([]int{8, 10, 12, 14}).Broadcast(128*MiB, nil, done("broadcast"))
	eng.Run()
	outcome += fmt.Sprintf("fired=%d\n", eng.Fired())
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(outcome))); sum != collectiveGolden {
		t.Errorf("outcome diverged from the per-flow golden (sha256 %s):\n%s", sum, outcome)
	}
}
