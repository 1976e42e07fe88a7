package plan

import (
	"context"
	"fmt"
	"slices"

	"c4/internal/sim"
	"c4/internal/trace"
)

// Fabric is the transport surface the executor drives. The job layer
// implements it over ACCL communicators (point-to-point SendRecv between
// adjacent stages, ring allreduce per DP group); tests implement it with
// arithmetic stubs.
type Fabric struct {
	Engine *sim.Engine
	// P2P ships bytes between the adjacent stages `from` and `to` of one
	// pipeline replica, starting at the absolute instant `ready`; done
	// fires with the delivery time.
	P2P func(replica, from, to int, bytes float64, ready sim.Time, done func(end sim.Time))
	// DPSync synchronizes one gradient bucket of `stage` across replicas;
	// arrivals[d] is replica d's bucket-ready instant. done fires with
	// the synchronization's completion time.
	DPSync func(stage int, bytes float64, arrivals []sim.Time, done func(end sim.Time))

	// Trace, when enabled, records a span per compute slot ("slot",
	// d/s/fwd|bwd), per stage-to-stage transfer ("p2p") and per gradient
	// bucket sync ("dpsync", stage/bucket), all parented under Span (the
	// job's iteration span). The fabric's P2P/DPSync launches run inside
	// the matching span's scope, so the underlying collective op and flow
	// spans nest under it.
	Trace *trace.Tracer
	Span  *trace.Span
}

// IterTiming carries this iteration's per-node compute perturbations,
// drawn by the caller (the job owns the RNG stream).
type IterTiming struct {
	// Scale[d][s] multiplies the compute of (replica d, stage s); 1 is
	// nominal. Values are clamped at 0.
	Scale [][]float64
	// Extra[d][s] is the node's whole per-iteration compute penalty — the
	// straggler injection — spread over its 2*GA slots so that they sum
	// to it exactly. Values are clamped at 0.
	Extra [][]sim.Time
}

// IterStats is the measured breakdown of one executed iteration:
//
//	IterTime = MaxBusy + Bubble + Exposed
//
// MaxBusy is the busiest node's total compute time, Bubble is the
// pipeline idle before compute finished (warmup/drain slots plus any
// stall waiting on activation transfers), and Exposed is the tail after
// the last compute slot that only data-parallel synchronization occupies
// — the share of the iteration that comm/compute overlap failed to hide,
// the quantity the paper's Fig 14 gains track.
type IterStats struct {
	Start      sim.Time
	End        sim.Time
	ComputeEnd sim.Time // end of the last compute slot
	MaxBusy    sim.Time // busiest node's summed slot durations
	Bubble     sim.Time // ComputeEnd - Start - MaxBusy
	Exposed    sim.Time // End - ComputeEnd
}

// IterTime is the iteration's wall duration.
func (s IterStats) IterTime() sim.Time { return s.End - s.Start }

// exec is the mutable state of one iteration in flight, held in a
// constant number of flat allocations whatever the plan's shape.
type exec struct {
	p     *Plan
	f     Fabric
	ctx   context.Context
	tm    IterTiming
	start sim.Time

	st []stageState // [d*PP+s]

	// bucketReady[(s*nb+i)*DP+d] is replica d's ready instant for bucket
	// i of stage s, and bucketSeen[s*nb+i] counts the replicas reported;
	// the sync launches when the last replica reports in.
	bucketReady []sim.Time
	bucketSeen  []int

	syncLeft   int
	computeEnd sim.Time
	onDone     func(IterStats)
}

type stageState struct {
	idx       int      // next task in Order[s]
	busyUntil sim.Time // end of the last scheduled compute slot
	busy      sim.Time // summed slot durations
	nominal   sim.Time // summed nominal durations of the scheduled slots
	// actAt[m] is the arrival instant of micro-batch m's activation from
	// the upstream stage; -1 until delivered. Stage 0 needs none.
	actAt []sim.Time
	// gradAt[m] is the arrival of m's gradient from the downstream stage;
	// -1 until delivered. The last stage needs none.
	gradAt []sim.Time
}

// ExecIter runs one iteration of the plan starting at the engine's
// current instant; onDone fires at the iteration's completion with the
// measured breakdown. The caller must not start a second iteration of
// the same plan before the first completes (stages are serial).
//
// ctx is a cooperative cancellation signal: once it is cancelled the
// executor stops scheduling new compute slots and transfers, so the
// iteration's event cascade dies out and the engine queue drains instead
// of running the schedule to completion (onDone then never fires). A nil
// ctx is never cancelled.
func (p *Plan) ExecIter(ctx context.Context, f Fabric, tm IterTiming, onDone func(IterStats)) {
	if f.Engine == nil || f.P2P == nil || f.DPSync == nil {
		panic("plan: ExecIter needs Engine, P2P and DPSync")
	}
	nst, nb := p.DP*p.PP, len(p.Buckets)
	e := &exec{
		p: p, f: f, ctx: ctx, tm: tm,
		start:       f.Engine.Now(),
		st:          make([]stageState, nst),
		bucketReady: make([]sim.Time, p.PP*nb*p.DP),
		bucketSeen:  make([]int, p.PP*nb),
		syncLeft:    p.PP * nb,
		onDone:      onDone,
	}
	// One backing array holds every stage's actAt and gradAt, all unknown.
	at := make([]sim.Time, 2*p.GA*nst)
	for i := range at {
		at[i] = -1
	}
	for i := range e.st {
		st := &e.st[i]
		st.busyUntil = e.start
		st.actAt, at = at[:p.GA:p.GA], at[p.GA:]
		st.gradAt, at = at[:p.GA:p.GA], at[p.GA:]
	}
	for d := 0; d < p.DP; d++ {
		for s := 0; s < p.PP; s++ {
			e.try(d, s)
		}
	}
}

// stage returns the state of stage s of replica d.
func (e *exec) stage(d, s int) *stageState { return &e.st[d*e.p.PP+s] }

// busyAfter is stage (d, s)'s summed compute time once it has run its
// first st.idx slots: trunc(nominal*scale) + Extra*idx/(2*GA), where
// nominal is those slots' summed nominal duration. Slot durations are the
// differences, so they telescope: the whole iteration's compute is one
// truncated product plus exactly Extra, not 2*GA truncated pieces.
func (e *exec) busyAfter(d, s int, st *stageState) sim.Time {
	scale, extra := 1.0, sim.Time(0)
	if d < len(e.tm.Scale) && s < len(e.tm.Scale[d]) {
		scale = max(e.tm.Scale[d][s], 0)
	}
	if d < len(e.tm.Extra) && s < len(e.tm.Extra[d]) {
		extra = max(e.tm.Extra[d][s], 0)
	}
	return sim.Time(float64(st.nominal)*scale) +
		extra*sim.Time(st.idx)/sim.Time(len(e.p.Order[s]))
}

// cancelled reports whether the iteration's context was cancelled; the
// executor then freezes the DAG by refusing to schedule further work.
func (e *exec) cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// try schedules stage (d, s)'s next tasks for as long as their data
// dependencies are already determined. Every dependency's arrival
// callback re-invokes try, so the stage resumes the moment it unblocks.
func (e *exec) try(d, s int) {
	if e.cancelled() {
		return
	}
	st := e.stage(d, s)
	order := e.p.Order[s]
	for st.idx < len(order) {
		t := order[st.idx]
		dep := e.start
		switch {
		case t.Kind == Fwd && s > 0:
			if st.actAt[t.MB] < 0 {
				return // activation still in flight (or not yet sent)
			}
			dep = st.actAt[t.MB]
		case t.Kind == Bwd && s < e.p.PP-1:
			if st.gradAt[t.MB] < 0 {
				return // downstream gradient still in flight
			}
			dep = st.gradAt[t.MB]
		}
		begin := st.busyUntil
		if dep > begin {
			begin = dep
		}
		st.idx++
		nominal := e.p.FwdTime
		if t.Kind == Bwd {
			nominal = e.p.BwdTime
		}
		st.nominal += nominal
		busy := e.busyAfter(d, s, st)
		end := begin + busy - st.busy
		st.busyUntil, st.busy = end, busy
		e.computeEnd = max(e.computeEnd, end)
		if e.f.Trace.Enabled() {
			// Slot begin/end are known at schedule time; record the span
			// whole so micro-batch attribution needs no completion hook.
			sp := e.f.Trace.StartAt(e.f.Span, "slot",
				fmt.Sprintf("d%d/s%d %s", d, s, t.Kind), begin)
			sp.Annotate("mb", fmt.Sprintf("%d", t.MB))
			sp.FinishAt(end)
		}
		// The final backward pass's bucket-ready instants are known the
		// moment the slot is scheduled; record them now so the DP sync
		// launches with future arrival times. It is every stage's last
		// slot, so the syncs the iteration waits for cover all compute.
		if t.Kind == Bwd && t.MB == e.p.GA-1 {
			e.recordBuckets(d, s, begin, end)
		}
		// Only a slot whose output crosses a pipeline cut needs an event
		// at its end; every other slot is fully accounted for here.
		if (t.Kind == Fwd && s < e.p.PP-1) || (t.Kind == Bwd && s > 0) {
			e.f.Engine.Schedule(end, func() { e.ship(d, s, t, end) })
		}
	}
}

// recordBuckets marks replica d's gradient buckets of stage s ready
// within its final backward slot [begin, end] (overlap on) or at its end
// (overlap off), launching each bucket's sync once every replica has
// reported.
func (e *exec) recordBuckets(d, s int, begin, end sim.Time) {
	nb := len(e.p.Buckets)
	span := end - begin
	for i := 0; i < nb; i++ {
		at := end
		if e.p.Opts.Overlap {
			at = begin + sim.Time(float64(span)*float64(i+1)/float64(nb))
		}
		k := s*nb + i
		ready := e.bucketReady[k*e.p.DP : (k+1)*e.p.DP]
		ready[d] = at
		e.bucketSeen[k]++
		if e.bucketSeen[k] == e.p.DP {
			var sp *trace.Span
			if e.f.Trace.Enabled() {
				sp = e.f.Trace.StartAt(e.f.Span, "dpsync",
					fmt.Sprintf("stage%d/bucket%d", s, i), slices.Min(ready))
			}
			restore := e.f.Trace.Scope(sp)
			e.f.DPSync(s, e.p.Buckets[i], ready, func(at sim.Time) {
				sp.FinishAt(at)
				e.syncDone(at)
			})
			restore()
		}
	}
}

// ship runs at the end instant of a slot whose output crosses a pipeline
// cut: it sends the activation (forward) or gradient (backward) tensor to
// the neighbor stage and wakes that stage when it lands.
func (e *exec) ship(d, s int, t Task, end sim.Time) {
	if e.cancelled() {
		return
	}
	to := s + 1
	if t.Kind == Bwd {
		to = s - 1
	}
	sp := e.p2pSpan(d, s, to, end)
	restore := e.f.Trace.Scope(sp)
	e.f.P2P(d, s, to, e.p.ActBytes, end, func(at sim.Time) {
		sp.FinishAt(at)
		if st := e.stage(d, to); t.Kind == Fwd {
			st.actAt[t.MB] = at
		} else {
			st.gradAt[t.MB] = at
		}
		e.try(d, to)
	})
	restore()
}

// p2pSpan opens the span for a stage-to-stage transfer launched at
// `ready`; nil when tracing is off.
func (e *exec) p2pSpan(d, from, to int, ready sim.Time) *trace.Span {
	if !e.f.Trace.Enabled() {
		return nil
	}
	return e.f.Trace.StartAt(e.f.Span, "p2p",
		fmt.Sprintf("d%d s%d->s%d", d, from, to), ready)
}

// syncDone counts one finished bucket sync. The last one closes the
// iteration — every stage's compute ends inside its final backward slot,
// which those syncs wait for — unless the context was cancelled.
func (e *exec) syncDone(at sim.Time) {
	e.syncLeft--
	if e.syncLeft > 0 || e.cancelled() {
		return
	}
	var maxBusy sim.Time
	for i := range e.st {
		st := &e.st[i]
		if st.idx != len(e.p.Order[0]) {
			panic(fmt.Sprintf("plan: iteration finished with stage at task %d/%d",
				st.idx, len(e.p.Order[0])))
		}
		maxBusy = max(maxBusy, st.busy)
	}
	end := max(at, e.computeEnd)
	stats := IterStats{
		Start:      e.start,
		End:        end,
		ComputeEnd: e.computeEnd,
		MaxBusy:    maxBusy,
		Bubble:     max(e.computeEnd-e.start-maxBusy, 0),
		Exposed:    end - e.computeEnd,
	}
	if e.onDone != nil {
		e.onDone(stats)
	}
}
