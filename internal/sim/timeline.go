package sim

import (
	"fmt"
	"time"
)

// Timelines are FIFO event streams that bypass the heap.
//
// Most of a packet simulation's events are per-link deliveries and
// transmit completions. Each link schedules them with one fixed
// callback and non-decreasing fire times, so they need no heap: a
// FIFO ring already holds them in fire order, and only its head
// competes with the rest of the simulation. A Timeline is such a
// ring, owned by one Scheduler. Step/RunUntil fire whichever comes
// first by (at, seq): the heap root or the earliest timeline head.
//
// Firing order is bit-for-bit what the heap produces. Scheduling on a
// timeline reserves the scheduler's next seq at that moment, exactly
// as AtPooled does, so every event keeps the (at, seq) key it would
// have had on the heap. Within a timeline keys increase (times are
// non-decreasing by contract and seq is monotone), so its head is its
// minimum, and the minimum over the heap root and all heads is the
// global minimum the heap would have popped. Fired(), TraceHook and
// every output are unchanged.
//
// The contract is enforced, not assumed: scheduling a timeline event
// before the timeline's tail or before now panics.

// timeline is the payload-free half of a Timeline that the scheduler
// sees: the head key, the queued count and the hook that fires the
// head. Keeping it non-generic lets one Scheduler hold timelines of
// any payload type.
type timeline struct {
	s   *Scheduler
	at  Time   // head fire time; valid while n > 0
	seq uint64 // head seq; valid while n > 0
	n   int
	// slot is the index in s.active while n > 0, and -1 otherwise.
	slot int
	// fire pops the head entry and runs the callback on its payload.
	// The scheduler has already advanced the clock and counted it.
	fire func()
}

// tlEntry is one queued timeline event with its payload.
type tlEntry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// Timeline is a FIFO event stream on one Scheduler: every event runs
// the same callback, on the payload it was scheduled with, and events
// must be scheduled with non-decreasing fire times. It costs no heap
// work and, once its ring is warm, no allocation. Events cannot be
// cancelled; use Scheduler.At for those.
type Timeline[T any] struct {
	timeline
	ring []tlEntry[T] // power-of-two circular buffer
	head int
	fn   func(T)
}

// NewTimeline returns an empty timeline on s whose events run fn.
func NewTimeline[T any](s *Scheduler, fn func(T)) *Timeline[T] {
	tl := &Timeline[T]{fn: fn}
	tl.timeline = timeline{s: s, slot: -1}
	tl.timeline.fire = tl.fireHead
	return tl
}

// Len returns the number of events queued on the timeline.
func (tl *Timeline[T]) Len() int { return tl.n }

// At schedules fn(v) at absolute time t. It panics if t is before now
// or before the latest event already queued on the timeline.
//
//tlcvet:hotpath every link delivery and transmit completion schedules through here
func (tl *Timeline[T]) At(t Time, v T) {
	s := tl.s
	if t < s.now {
		panic(fmt.Sprintf("sim: timeline schedule at %v before now %v", t, s.now))
	}
	if tl.n > 0 {
		if tail := tl.ring[(tl.head+tl.n-1)&(len(tl.ring)-1)].at; t < tail {
			panic(fmt.Sprintf("sim: timeline schedule at %v before its tail at %v", t, tail))
		}
	}
	if tl.n == len(tl.ring) {
		tl.grow()
	}
	tl.ring[(tl.head+tl.n)&(len(tl.ring)-1)] = tlEntry[T]{at: t, seq: s.seq, v: v}
	tl.n++
	if tl.n == 1 {
		tl.at, tl.seq = t, s.seq
		s.activate(&tl.timeline)
	}
	s.seq++
}

// After schedules fn(v) d after now; a negative d means now.
//
//tlcvet:hotpath relative-time twin of Timeline.At
func (tl *Timeline[T]) After(d time.Duration, v T) {
	if d < 0 {
		d = 0
	}
	tl.At(tl.s.now+d, v)
}

// fireHead pops the head entry, hands the new head (or emptiness) to
// the scheduler, then runs the callback. The scheduler must see the
// popped state first: the callback may schedule on this timeline.
func (tl *Timeline[T]) fireHead() {
	e := &tl.ring[tl.head]
	v := e.v
	*e = tlEntry[T]{} // release the payload
	tl.head = (tl.head + 1) & (len(tl.ring) - 1)
	tl.n--
	if tl.n > 0 {
		next := &tl.ring[tl.head]
		tl.at, tl.seq = next.at, next.seq
	}
	tl.s.advanced(&tl.timeline)
	tl.fn(v)
}

// grow doubles the ring (16 slots minimum), unwrapping the FIFO to the
// front of the new buffer.
func (tl *Timeline[T]) grow() {
	n := len(tl.ring) * 2
	if n == 0 {
		n = 16
	}
	//tlcvet:allow hotalloc — geometric doubling; amortized O(1) per event and quiescent once the ring reaches the timeline's high-water mark
	buf := make([]tlEntry[T], n)
	for i := 0; i < tl.n; i++ {
		buf[i] = tl.ring[(tl.head+i)&(len(tl.ring)-1)]
	}
	tl.ring = buf
	tl.head = 0
}

// activate registers a timeline that just became non-empty and
// updates the cached earliest head.
func (s *Scheduler) activate(tl *timeline) {
	tl.slot = len(s.active)
	s.active = append(s.active, tl)
	if m := s.tlMin; m == nil || tl.at < m.at || (tl.at == m.at && tl.seq < m.seq) {
		s.tlMin = tl
	}
}

// advanced runs after tl fired its head: an emptied timeline leaves
// the active set, and the earliest head is recomputed.
func (s *Scheduler) advanced(tl *timeline) {
	if tl.n == 0 {
		last := s.active[len(s.active)-1]
		last.slot = tl.slot
		s.active[tl.slot] = last
		s.active[len(s.active)-1] = nil
		s.active = s.active[:len(s.active)-1]
		tl.slot = -1
	}
	if len(s.active) == 0 {
		s.tlMin = nil
		return
	}
	m := s.active[0]
	for _, c := range s.active[1:] {
		if c.at < m.at || (c.at == m.at && c.seq < m.seq) {
			m = c
		}
	}
	s.tlMin = m
}
