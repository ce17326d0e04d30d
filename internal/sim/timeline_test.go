package sim

import (
	"strings"
	"testing"
	"time"
)

// diffProgram runs one randomized event program on a scheduler. The
// program is a pure function of its seed and of the order events
// fire in, so two programs with the same seed do the same things as
// long as their schedulers fire the same (at, seq) stream. With tls
// set, timeline events go onto those timelines; without, the same
// events go onto the heap through AtPooled, which is the reference.
type diffProgram struct {
	s       *Scheduler
	rng     *RNG
	tls     []*Timeline[int]
	tails   []Time
	handles []*Event
	limit   int
	nextID  int
	trace   []diffFiring
}

type diffFiring struct {
	at  Time
	seq uint64
	id  int
}

const diffTimelines = 3

func newDiffProgram(seed int64, withTimelines bool, limit int) *diffProgram {
	d := &diffProgram{s: NewScheduler(), rng: NewRNG(seed), limit: limit, tails: make([]Time, diffTimelines)}
	if withTimelines {
		for i := 0; i < diffTimelines; i++ {
			d.tls = append(d.tls, NewTimeline(d.s, d.fire))
		}
	}
	d.s.TraceHook = func(at Time, seq uint64) {
		d.trace = append(d.trace, diffFiring{at: at, seq: seq, id: -1})
	}
	return d
}

// fire records which event ran and lets it schedule more.
func (d *diffProgram) fire(id int) {
	d.trace[len(d.trace)-1].id = id
	d.spawn(1 + d.rng.Intn(2))
}

// spawn schedules n random events: cancellable heap events, pooled
// heap events and timeline events at non-decreasing per-timeline
// times (ties included), then maybe cancels an outstanding handle.
func (d *diffProgram) spawn(n int) {
	for i := 0; i < n && d.nextID < d.limit; i++ {
		id := d.nextID
		d.nextID++
		now := d.s.Now()
		switch k := d.rng.Intn(2 + diffTimelines); k {
		case 0:
			ev := d.s.At(now+Time(d.rng.Intn(50))*time.Microsecond, func() { d.fire(id) })
			d.handles = append(d.handles, ev)
		case 1:
			d.s.AtPooled(now+Time(d.rng.Intn(50))*time.Microsecond, func() { d.fire(id) })
		default:
			j := k - 2
			t := max(now, d.tails[j]) + Time(d.rng.Intn(3))*10*time.Microsecond
			d.tails[j] = t
			if d.tls != nil {
				d.tls[j].At(t, id)
			} else {
				d.s.AtPooled(t, func() { d.fire(id) })
			}
		}
	}
	if len(d.handles) > 0 && d.rng.Intn(4) == 0 {
		d.s.Cancel(d.handles[d.rng.Intn(len(d.handles))])
	}
}

// run drives the program: a burst of initial events, a fixed series
// of RunUntil windows (some landing between events, some exactly on
// them), then Run to drain.
func (d *diffProgram) run(windows *RNG) {
	d.spawn(40)
	for w := 0; w < 60; w++ {
		d.s.RunUntil(d.s.Now() + Time(windows.Intn(40))*time.Microsecond)
	}
	d.s.Run()
}

// TestTimelineDifferentialAgainstHeap is the engine differential: a
// random mix of heap events (some cancelled) and three monotone
// timelines must fire exactly the (at, seq) stream, the callbacks and
// the Fired() count of a reference scheduler with every event on the
// heap.
func TestTimelineDifferentialAgainstHeap(t *testing.T) {
	for trial := int64(0); trial < 40; trial++ {
		seed := 1000 + trial
		got := newDiffProgram(seed, true, 4000)
		got.run(NewRNG(-seed))
		want := newDiffProgram(seed, false, 4000)
		want.run(NewRNG(-seed))

		if len(got.trace) != len(want.trace) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, got.trace[i], want.trace[i])
			}
		}
		if got.s.Fired() != want.s.Fired() || got.s.Now() != want.s.Now() {
			t.Fatalf("seed %d: fired/now %d/%v, reference %d/%v",
				seed, got.s.Fired(), got.s.Now(), want.s.Fired(), want.s.Now())
		}
		if got.s.Pending() != 0 || want.s.Pending() != 0 {
			t.Fatalf("seed %d: pending %d/%d after Run", seed, got.s.Pending(), want.s.Pending())
		}
		onTimelines := 0
		for _, f := range got.trace {
			if f.id < 0 {
				t.Fatalf("seed %d: event at %v fired without its callback", seed, f.at)
			}
		}
		for _, tl := range got.tls {
			onTimelines += len(tl.ring)
		}
		if onTimelines == 0 || got.nextID < 1000 {
			t.Fatalf("seed %d: program too small (%d events, timelines unused)", seed, got.nextID)
		}
	}
}

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestTimelinePanicsOutOfOrder: a timeline event before the
// timeline's tail, or before now, is a broken contract and must fail
// loudly rather than fire out of (at, seq) order.
func TestTimelinePanicsOutOfOrder(t *testing.T) {
	s := NewScheduler()
	tl := NewTimeline(s, func(int) {})
	tl.At(5*time.Millisecond, 1)
	tl.At(5*time.Millisecond, 2) // equal to the tail is fine
	expectPanic(t, "before its tail", func() { tl.At(4*time.Millisecond, 3) })

	s.RunUntil(10 * time.Millisecond)
	expectPanic(t, "before now", func() { tl.At(9*time.Millisecond, 4) })
	tl.After(-time.Second, 5) // negative delays clamp to now, like AfterPooled
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

// TestTimelineFIFOAcrossGrowth keeps more events queued than the
// ring's initial 16 slots while others fire, so the circular buffer
// wraps and grows mid-stream, and checks payloads still come out in
// schedule order with Len and Pending tracking them.
func TestTimelineFIFOAcrossGrowth(t *testing.T) {
	s := NewScheduler()
	var got []int
	tl := NewTimeline(s, func(v int) { got = append(got, v) })
	next := 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			tl.At(s.Now()+Time(next/7)*time.Millisecond, next)
			next++
		}
	}
	push(10)
	s.Step()
	s.Step() // the head moves off slot 0, so the next growth unwraps
	push(90)
	if tl.Len() != 98 || s.Pending() != 98 {
		t.Fatalf("Len/Pending = %d/%d, want 98/98", tl.Len(), s.Pending())
	}
	s.Run()
	if len(got) != next {
		t.Fatalf("fired %d, want %d", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired payload %d", i, v)
		}
	}
	if tl.Len() != 0 || s.Pending() != 0 {
		t.Fatalf("Len/Pending = %d/%d after drain", tl.Len(), s.Pending())
	}
}

// TestTimelineInterleavesWithHeapAtEqualTimes: at one fire time,
// heap and timeline events run in schedule order, whichever side
// they were scheduled on.
func TestTimelineInterleavesWithHeapAtEqualTimes(t *testing.T) {
	s := NewScheduler()
	var got []string
	a := NewTimeline(s, func(v string) { got = append(got, v) })
	b := NewTimeline(s, func(v string) { got = append(got, v) })
	at := time.Millisecond
	a.At(at, "a1")
	s.At(at, func() { got = append(got, "h1") })
	b.At(at, "b1")
	a.At(at, "a2")
	s.AtPooled(at, func() { got = append(got, "h2") })
	b.At(at, "b2")
	s.Run()
	if want := "a1 h1 b1 a2 h2 b2"; strings.Join(got, " ") != want {
		t.Fatalf("order %v, want %s", got, want)
	}
}

// TestTimelineZeroAllocSteadyState asserts that scheduling and firing
// a timeline event, next to heap traffic, allocates nothing once the
// ring and active set are warm.
func TestTimelineZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := NewScheduler()
	payload := new(int)
	sum := 0
	tl := NewTimeline(s, func(p *int) { sum += *p })
	fn := func() {}
	for i := 0; i < 64; i++ { // warm the ring, heap, free list and active set
		tl.After(time.Duration(i)*time.Microsecond, payload)
		s.AfterPooled(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		tl.After(time.Microsecond, payload)
		s.AfterPooled(time.Microsecond, fn)
		s.Step()
		s.Step()
	})
	if avg != 0 {
		t.Fatalf("timeline steady state allocates %v per op, want 0", avg)
	}
}
