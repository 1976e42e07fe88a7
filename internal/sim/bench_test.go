package sim

import "testing"

// The engine's three scheduling costs, each against a queue holding a
// standing population of 1,024 future events, the order of a paper
// scenario's live queue.

// benchQueue returns an engine with depth events queued far in the future.
func benchQueue(depth int) *Engine {
	e := NewEngine()
	for i := 0; i < depth; i++ {
		e.Schedule(Hour+Time(i), func() {})
	}
	return e
}

// BenchmarkSchedulePop schedules one func event and fires it: a closure
// and an Event per call.
func BenchmarkSchedulePop(b *testing.B) {
	e := benchQueue(1024)
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, func() { n++ })
		e.step()
	}
}

// BenchmarkReschedule moves one queued event back and forth in place.
func BenchmarkReschedule(b *testing.B) {
	e := benchQueue(1024)
	ev := e.Schedule(Minute, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reschedule(ev, Minute+Time(i%2)*Hour*2)
	}
}

// BenchmarkPost posts one handler and fires it; the engine recycles the
// Event.
func BenchmarkPost(b *testing.B) {
	e := benchQueue(1024)
	h := &chain{e: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Post(e.Now()+1, h)
		e.step()
	}
}
