package sim

import "testing"

// tagger is a Handler that records its tag when it fires.
type tagger struct {
	tag int
	got *[]int
}

func (h *tagger) Fire() { *h.got = append(*h.got, h.tag) }

// Same-instant events fire in the order they were scheduled, whichever
// form scheduled them: a func (Schedule), a recycled Post, or an owned
// handler event armed with Arm — including a Post that reuses a recycled
// Event and an owned event re-armed after it fired.
func TestSameInstantOrderAcrossEventForms(t *testing.T) {
	e := NewEngine()
	var got []int
	owned := NewEvent(&tagger{tag: 2, got: &got})
	e.Post(1, &tagger{tag: 0, got: &got}) // fires first; its Event is recycled
	e.Run()
	got = got[:0]

	e.Schedule(5, func() { got = append(got, 0) })
	e.Post(5, &tagger{tag: 1, got: &got}) // reuses the recycled Event
	e.Arm(owned, 5)
	e.Schedule(5, func() { got = append(got, 3) })
	e.Post(5, &tagger{tag: 4, got: &got})
	e.Run()
	// The owned event again, now behind a later Post at the same instant.
	e.Post(9, &tagger{tag: 5, got: &got})
	e.Arm(owned, 9)
	e.Run()

	want := []int{0, 1, 2, 3, 4, 5, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// A cancelled long-lived event re-armed at a new instant fires exactly
// once, there — whether the cancelled event was still parked in the heap,
// already discarded from its head, or swept by a compaction.
func TestArmRevivesCancelledEvent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		discard func(e *Engine)
		parked  bool // the cancelled event still holds its heap slot
	}{
		{"parked", func(*Engine) {}, true},
		{"discarded", func(e *Engine) { e.NextEventAt() }, false},
		{"compacted", func(e *Engine) {
			for i := 0; i < 100; i++ {
				e.Schedule(50, func() {}).Cancel()
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var fired []Time
			ev := NewEvent(Func(func() { fired = append(fired, e.Now()) }))
			e.Arm(ev, 10)
			ev.Cancel()
			tc.discard(e)
			if parked := ev.index >= 0; parked != tc.parked {
				t.Fatalf("parked = %v, want %v", parked, tc.parked)
			}
			if ev.Queued() {
				t.Fatal("a cancelled event reports Queued")
			}
			e.Arm(ev, 30)
			if !ev.Queued() || ev.Cancelled() || ev.At() != 30 {
				t.Fatalf("re-armed: queued=%v cancelled=%v at=%v", ev.Queued(), ev.Cancelled(), ev.At())
			}
			if e.Pending() != 1 {
				t.Fatalf("pending = %d, want 1", e.Pending())
			}
			e.Run()
			if len(fired) != 1 || fired[0] != 30 {
				t.Fatalf("fired at %v, want once at 30", fired)
			}
			if st := e.QueueStats(); st.Len != 0 || st.Dead != 0 {
				t.Fatalf("queue not drained: %+v", st)
			}
		})
	}
}

// A recycled (Post) event fires exactly once: after it fires, the engine
// reuses the same Event for the next Post, and the first handler never
// runs again.
func TestPostFiresOnce(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Post(10, &tagger{tag: 1, got: &got})
	first := e.queue[0]
	e.Run()
	if len(e.free) != 1 || e.free[0] != first {
		t.Fatalf("fired Post event not recycled: free=%v", e.free)
	}
	e.Post(20, &tagger{tag: 2, got: &got})
	if e.queue[0] != first || len(e.free) != 0 {
		t.Fatal("second Post did not reuse the recycled Event")
	}
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if e.Fired() != 2 {
		t.Fatalf("fired = %d, want 2", e.Fired())
	}
}

// A Post chain — each handler posting the next — and re-arming an owned
// event allocate nothing once warm.
func TestPostAndArmAllocateNothing(t *testing.T) {
	e := NewEngine()
	c := &chain{e: e}
	owned := NewEvent(Func(func() {}))
	run := func() {
		c.left = 4
		e.Post(e.Now()+1, c)
		e.Arm(owned, e.Now()+2)
		e.Run()
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm Post chain and Arm: %v allocs per run, want 0", allocs)
	}
}

// chain is a Handler that re-posts itself left more times.
type chain struct {
	e    *Engine
	left int
}

func (c *chain) Fire() {
	if c.left > 0 {
		c.left--
		c.e.Post(c.e.Now()+1, c)
	}
}
