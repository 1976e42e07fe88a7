// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in the order they were
// scheduled, which — together with the seeded random source in rand.go —
// makes every simulation in this repository reproducible bit-for-bit.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. It intentionally mirrors time.Duration semantics so
// durations and instants compose naturally.
type Time int64

// Common time constants, re-exported so callers do not need to juggle
// conversions between time.Duration and sim.Time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour

	// MaxTime is the largest representable instant; used as "never".
	MaxTime Time = math.MaxInt64
)

// Seconds reports the instant as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the virtual instant to a time.Duration offset.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// MaxSpanSeconds bounds the instants and durations a run spec may name,
// in seconds (about 31.7 years): far past any horizon a run reaches, and
// small enough that an instant plus a few such spans stays inside Time.
const MaxSpanSeconds = 1e9

// ValidSpan reports whether s is a finite number of seconds in
// [0, MaxSpanSeconds], which FromSeconds converts without overflow.
func ValidSpan(s float64) bool { return s >= 0 && s <= MaxSpanSeconds }

// FromSeconds converts floating-point seconds to a virtual time offset.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromDuration converts a time.Duration to a virtual time offset.
func FromDuration(d time.Duration) Time { return Time(d) }

func (t Time) String() string { return time.Duration(t).String() }

// Handler is the closure-free form of an event callback: the engine calls
// Fire when the event runs. A long-lived model object implements it once,
// often through a named type over itself, so scheduling a callback on it
// allocates no closure.
type Handler interface{ Fire() }

// Func adapts a plain func to a Handler. Schedule and After wrap their
// callback in it, so the engine keeps one event representation; a func
// value is pointer-shaped, so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a scheduled callback. Schedule and After return one so callers
// can cancel it; a model that re-arms one timer over and over owns one
// Event for its lifetime (NewEvent, Engine.Arm). Post's events are the
// engine's own: it recycles each one once it fires, so nothing outside the
// engine ever holds one.
//
// The struct is 48 bytes and must not grow: the engine allocates one for
// every flow admission (netsim), and the heap's sift loops read it.
type Event struct {
	at      Time
	seq     uint64
	h       Handler
	eng     *Engine
	index   int32 // heap index; -1 when not queued
	cancel  bool
	recycle bool // a Post event: back to the engine's free list once it fires
}

// NewEvent returns an unqueued event that runs h each time an engine arms
// it (Engine.Arm).
func NewEvent(h Handler) *Event { return &Event{h: h, index: -1} }

// At reports the instant the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Queued reports whether the event is waiting to fire: armed, neither
// cancelled nor fired since.
func (e *Event) Queued() bool { return e.index >= 0 && !e.cancel }

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e.cancel {
		return
	}
	e.cancel = true
	if e.index >= 0 && e.eng != nil {
		e.eng.dead++
		e.eng.stats.cancelled++
		e.eng.maybeCompact()
	}
}

// Cancelled reports whether Cancel was called on the event since it was
// last armed.
func (e *Event) Cancelled() bool { return e.cancel }

// eventQueue is a binary min-heap on (at, seq). The keys are unique, so the
// pop order is the same for any correct heap; a typed heap only saves the
// interface calls of container/heap.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = int32(i)
	q[j].index = int32(j)
}

func (q eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts q[i] toward the leaves and reports whether it moved.
func (q eventQueue) down(i int) bool {
	i0 := i
	for {
		j := 2*i + 1
		if j >= len(q) {
			break
		}
		if r := j + 1; r < len(q) && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

// fix restores the heap after q[i]'s key changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *eventQueue) push(ev *Event) {
	ev.index = int32(len(*q))
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

func (q *eventQueue) pop() *Event {
	old := *q
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	*q = old[:n]
	q.down(0)
	ev.index = -1
	return ev
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the caller's
// goroutine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	stopped bool
	fired   uint64
	dead    int      // cancelled events still sitting in the queue
	free    []*Event // fired Post events, ready for reuse
	ids     map[string]int
	stats   queueCounters
}

// queueCounters is the engine's lifetime accounting, surfaced via
// QueueStats. Counters only ever increase; the high-water marks record the
// worst pressure the queue has seen, which is what capacity planning and
// the compaction heuristic regressions care about.
type queueCounters struct {
	scheduled   uint64
	cancelled   uint64
	rescheduled uint64
	compactions uint64
	hiLive      int // max Pending() observed
	hiHeap      int // max physical heap length observed
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NextID returns the next identifier in the named sequence, starting at 1.
// Model components allocate their identifiers (communicator IDs, queue-pair
// numbers) here rather than from package globals, so IDs are stable per
// simulation regardless of what else ran in the process — a requirement for
// deterministic replay — and race-free when simulations run concurrently.
func (e *Engine) NextID(seq string) int {
	if e.ids == nil {
		e.ids = make(map[string]int)
	}
	e.ids[seq]++
	return e.ids[seq]
}

// Fired reports how many events have executed so far. Useful for tests and
// for detecting runaway simulations.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of live (non-cancelled) events currently
// queued. Cancelled events may physically linger until lazily discarded or
// compacted, but they never count here and never fire.
func (e *Engine) Pending() int { return len(e.queue) - e.dead }

// QueueStats is a snapshot of event-queue pressure and lifetime churn.
// Len is the physical heap length, Dead the cancelled events still parked
// in it, and Live their difference — always equal to Pending(). The two
// can disagree transiently between a Cancel and the next compaction or
// head-pop; exposing both makes that window observable instead of a
// source of confusion.
type QueueStats struct {
	Len           int    // physical heap length right now
	Dead          int    // cancelled events still occupying heap slots
	Live          int    // Len - Dead; identical to Pending()
	HighWater     int    // maximum Live ever observed at schedule time
	HeapHighWater int    // maximum Len ever observed (includes dead weight)
	Scheduled     uint64 // total events ever scheduled
	Cancelled     uint64 // total queued events cancelled
	Rescheduled   uint64 // total in-place Reschedule moves
	Compactions   uint64 // times the dead-majority compaction ran
}

// QueueStats reports the current queue pressure and lifetime counters.
func (e *Engine) QueueStats() QueueStats {
	return QueueStats{
		Len:           len(e.queue),
		Dead:          e.dead,
		Live:          len(e.queue) - e.dead,
		HighWater:     e.stats.hiLive,
		HeapHighWater: e.stats.hiHeap,
		Scheduled:     e.stats.scheduled,
		Cancelled:     e.stats.cancelled,
		Rescheduled:   e.stats.rescheduled,
		Compactions:   e.stats.compactions,
	}
}

// maybeCompact physically removes cancelled events once they make up the
// majority of a non-trivial queue. Long-running models that cancel and
// re-arm timers constantly (flow reroutes, hang-alarm pushback) would
// otherwise grow the heap without bound between pops. Compaction preserves
// every live event's (at, seq) key, so the fire order — and therefore every
// downstream measurement — is unchanged.
func (e *Engine) maybeCompact() {
	if e.dead < 64 || e.dead*2 <= len(e.queue) {
		return
	}
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancel {
			ev.index = -1
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	for i, ev := range e.queue {
		ev.index = int32(i)
	}
	for i := len(e.queue)/2 - 1; i >= 0; i-- {
		e.queue.down(i)
	}
	e.dead = 0
	e.stats.compactions++
}

// Reschedule moves a still-queued event to a new instant in place instead
// of cancelling it and allocating a replacement. The event is assigned a
// fresh scheduling sequence number, so among same-instant events it fires
// exactly where a newly created event would — rescheduling is behaviorally
// indistinguishable from cancel-plus-Schedule, minus the garbage and heap
// churn. It reports false when the event is nil, already fired, or
// cancelled; callers then fall back to scheduling a new event.
func (e *Engine) Reschedule(ev *Event, at Time) bool {
	if ev == nil || ev.cancel || ev.index < 0 {
		return false
	}
	e.Arm(ev, at)
	return true
}

// Arm queues ev at the instant at, whatever state it is in: a queued event
// moves in place, a cancelled one still parked in the heap is revived
// there, and one that fired, or was cancelled and discarded, or is fresh
// from NewEvent, is queued again. Like Reschedule, the event takes a fresh
// sequence number, so among same-instant events it fires exactly where a
// newly scheduled one would. A model that re-arms one timer over and over
// (netsim's recompute and completion events, the C4D reporting tick) owns
// one Event for its lifetime instead of allocating one per arming. Arming
// in the past panics, as scheduling does.
func (e *Engine) Arm(ev *Event, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	ev.at, ev.seq, ev.eng = at, e.seq, e
	if ev.index >= 0 {
		if ev.cancel {
			ev.cancel = false
			e.dead--
		}
		e.queue.fix(int(ev.index))
		e.stats.rescheduled++
		return
	}
	ev.cancel = false
	e.queue.push(ev)
	e.stats.scheduled++
	if n := len(e.queue); n > e.stats.hiHeap {
		e.stats.hiHeap = n
	}
	if live := len(e.queue) - e.dead; live > e.stats.hiLive {
		e.stats.hiLive = live
	}
}

// Schedule queues fn to run at the absolute instant at. Scheduling in the
// past panics: it always indicates a model bug, and silently reordering
// time would corrupt every downstream measurement.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := NewEvent(Func(fn))
	e.Arm(ev, at)
	return ev
}

// After queues fn to run delay after the current instant.
func (e *Engine) After(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// Post queues h to fire at the absolute instant at, fire-and-forget: it
// returns no Event, so the call cannot be cancelled, and the engine reuses
// the Event once it fires. A steady stream of Posts allocates nothing once
// the free list covers the most events ever in flight at once.
func (e *Engine) Post(at Time, h Handler) {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{index: -1, recycle: true}
	}
	ev.h = h
	e.Arm(ev, at)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next event. It reports false when the queue is empty.
// A Post event goes back to the free list before its handler runs, so the
// handler's own Posts can reuse it.
func (e *Engine) step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.cancel {
			e.dead--
			continue
		}
		if ev.at < e.now {
			panic("sim: event queue time went backwards")
		}
		e.now = ev.at
		e.fired++
		h := ev.h
		if ev.recycle {
			ev.h = nil
			e.free = append(e.free, ev)
		}
		h.Fire()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to exactly deadline (if it is in the future).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		next := e.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for the given span of virtual time from now.
func (e *Engine) RunFor(span Time) { e.RunUntil(e.now + span) }

// peek returns the next live event, or nil when none is queued.
func (e *Engine) peek() *Event {
	// Cancelled events may sit at the head; skip them without firing.
	for len(e.queue) > 0 && e.queue[0].cancel {
		e.queue.pop()
		e.dead--
	}
	if len(e.queue) == 0 {
		return nil
	}
	return e.queue[0]
}

// NextEventAt reports the instant of the next pending event, or MaxTime if
// the queue is empty.
func (e *Engine) NextEventAt() Time {
	if next := e.peek(); next != nil {
		return next.at
	}
	return MaxTime
}
