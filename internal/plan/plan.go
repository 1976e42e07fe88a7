// Package plan compiles a training iteration — (workload.Model,
// Parallelism, gradient accumulation) — into a timed micro-batch schedule
// and executes it on the simulated fabric. It is the layer the paper's
// Fig 14 lesson lives in: what traffic a job puts on the network, and how
// much of it compute can hide, is decided entirely by the parallelization
// strategy, and C4P's gains track the exposed-communication share.
//
// The compiler expands the strategy into a 1F1B pipeline schedule: per
// stage, GA forward and GA backward compute slots in the canonical
// one-forward-one-backward order; activation tensors shipped stage s ->
// s+1 after each forward and gradient tensors s -> s-1 after each
// backward (point-to-point accl.SendRecv traffic); and the data-parallel
// gradient synchronization split into buckets that launch as the final
// backward pass produces their gradients (overlap on) or all at once when
// the stage drains (overlap off). The executor (exec.go) runs the
// schedule as a dependency-driven DAG on the discrete-event engine and
// reports the iteration breakdown — compute, pipeline bubble, exposed
// communication — that the plan/* scenario family sweeps. It is the one
// model of a training iteration: a pure data-parallel GA=1 job is the
// one-stage, one-micro-batch schedule, whose two slots telescope to the
// lump of compute before a single gradient allreduce.
//
// The package deliberately depends only on sim and workload: the job
// layer adapts it onto ACCL communicators, so plan <- job remains
// acyclic and the executor is unit-testable with arithmetic stubs.
package plan

import (
	"fmt"
	"math"

	"c4/internal/sim"
	"c4/internal/workload"
)

// Options tunes the compiled schedule.
type Options struct {
	// BucketBytes splits each stage's DP gradient volume into buckets of
	// at most this many bytes, each synchronized by an independent
	// allreduce; 0 or negative means one bucket (the whole gradient).
	BucketBytes float64
	// Overlap launches each bucket the moment the final backward pass has
	// produced its slice of the gradient, hiding allreduce time behind the
	// remaining backward compute (DDP-style comm/compute overlap). Off,
	// every bucket waits for the stage's backward drain to finish — the
	// fully exposed baseline.
	Overlap bool
}

// TaskKind distinguishes the two compute slots of a micro-batch.
type TaskKind int8

// The compute slot kinds of the 1F1B schedule.
const (
	Fwd TaskKind = iota
	Bwd
)

func (k TaskKind) String() string {
	if k == Fwd {
		return "fwd"
	}
	return "bwd"
}

// Task is one compute slot: the forward or backward pass of micro-batch
// MB on whichever stage's order it appears in.
type Task struct {
	Kind TaskKind
	MB   int
}

// Plan is a compiled training iteration.
type Plan struct {
	Spec workload.JobSpec
	Opts Options

	PP, DP, GA int

	// FwdTime and BwdTime are the nominal per-micro-batch slot durations
	// (before per-node jitter): the forward pass takes the conventional
	// third of ComputePerMicroBatch, the backward pass the rest.
	FwdTime, BwdTime sim.Time
	// ActBytes is the activation (and backward gradient) tensor shipped
	// across each pipeline cut per micro-batch (DefaultActivationBytes).
	ActBytes float64
	// GradBytes is the per-rank DP synchronization volume per stage.
	GradBytes float64
	// Buckets are the gradient bucket sizes (sum == GradBytes).
	Buckets []float64

	// Order[s] is stage s's serial compute order: the canonical 1F1B
	// interleaving (warmup forwards, steady one-forward-one-backward,
	// backward drain).
	Order [][]Task
}

// Size caps of a compiled plan: a stage holds 2·GA compute slots and its
// gradient is cut into at most MaxBuckets buckets, so neither an absurd
// GA nor a tiny bucket size can make Compile allocate without bound.
const (
	MaxGA      = 1024
	MaxBuckets = 4096
)

// Compile expands the spec's parallelization strategy into a schedule.
func Compile(spec workload.JobSpec, opts Options) (*Plan, error) {
	par := spec.Par.Normalize()
	if want := par.PP * par.DP; len(spec.Nodes) != want {
		return nil, fmt.Errorf("plan: job %q has %d nodes, needs PP*DP = %d",
			spec.Name, len(spec.Nodes), want)
	}
	if spec.ComputePerMicroBatch < 0 {
		return nil, fmt.Errorf("plan: job %q has negative compute time", spec.Name)
	}
	if par.GA > MaxGA {
		return nil, fmt.Errorf("plan: job %q accumulates %d micro-batches, more than %d", spec.Name, par.GA, MaxGA)
	}
	if n := bucketCount(spec.Model.GradBytesPerRank(par), opts.BucketBytes); n > MaxBuckets {
		return nil, fmt.Errorf("plan: job %q cuts a stage's gradient into %d buckets, more than %d", spec.Name, n, MaxBuckets)
	}
	p := &Plan{
		Spec: spec, Opts: opts,
		PP: par.PP, DP: par.DP, GA: par.GA,
		FwdTime:   sim.Time(float64(spec.ComputePerMicroBatch) * (1.0 / 3)),
		ActBytes:  DefaultActivationBytes(spec.Model, par),
		GradBytes: spec.Model.GradBytesPerRank(par),
	}
	p.BwdTime = spec.ComputePerMicroBatch - p.FwdTime
	p.Buckets = splitBuckets(p.GradBytes, opts.BucketBytes)
	for s := 0; s < p.PP; s++ {
		p.Order = append(p.Order, stageOrder(s, p.PP, p.GA))
	}
	return p, nil
}

// DefaultActivationBytes is the per-micro-batch, per-cut pipeline tensor
// (already tensor-parallel sharded; the backward gradient tensor is the
// same size): the stage's gradient shard diluted by 8*GA, so one
// iteration's total pipeline traffic per cut (GA activations forward + GA
// gradients backward) is a quarter of the DP volume — pipeline traffic
// visible on the fabric, DP still dominant, matching the proportions of
// the paper's Megatron jobs.
func DefaultActivationBytes(m workload.Model, par workload.Parallelism) float64 {
	par = par.Normalize()
	return m.GradBytesPerRank(par) / float64(8*par.GA)
}

// bucketCount is how many buckets of at most `bucket` bytes splitBuckets
// cuts `total` bytes into (one when bucket is 0 or negative). It
// saturates instead of overflowing, so callers can bound it first.
func bucketCount(total, bucket float64) int {
	if !(bucket > 0) || bucket >= total || total <= 0 {
		return 1
	}
	n := math.Ceil(total / bucket)
	if n > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(n)
}

// splitBuckets cuts `total` bytes into buckets of at most `bucket` bytes.
func splitBuckets(total, bucket float64) []float64 {
	if bucket <= 0 || bucket >= total || total <= 0 {
		return []float64{total}
	}
	out := make([]float64, 0, bucketCount(total, bucket))
	left := total
	for left > 0 {
		b := bucket
		if left < b {
			b = left
		}
		out = append(out, b)
		left -= b
	}
	return out
}

// stageOrder emits stage s's canonical 1F1B order: w = min(GA, PP-1-s)
// warmup forwards, then alternating fwd(k)/bwd(k-w) through the steady
// state, then the backward drain. Every stage runs 2*GA slots.
func stageOrder(s, pp, ga int) []Task {
	w := pp - 1 - s
	if w > ga {
		w = ga
	}
	order := make([]Task, 0, 2*ga)
	for m := 0; m < w; m++ {
		order = append(order, Task{Fwd, m})
	}
	for k := w; k < ga; k++ {
		order = append(order, Task{Fwd, k}, Task{Bwd, k - w})
	}
	for m := ga - w; m < ga; m++ {
		order = append(order, Task{Bwd, m})
	}
	return order
}

// String summarizes the compiled schedule.
func (p *Plan) String() string {
	return fmt.Sprintf("plan %s %v: %d stages x %d micro-batches, %d bucket(s), overlap=%v, act %.0f MiB, grad %.0f MiB/stage",
		p.Spec.Name, p.Spec.Par, p.PP, p.GA, len(p.Buckets), p.Opts.Overlap,
		p.ActBytes/(1<<20), p.GradBytes/(1<<20))
}
