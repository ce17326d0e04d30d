package netem

import (
	"testing"
	"time"

	"tlc/internal/sim"
)

// TestDeliveryRingFIFOAcrossGrowth keeps more packets in flight than
// the wire timeline's initial ring capacity so it grows mid-stream,
// and checks packets still arrive in transmission order.
func TestDeliveryRingFIFOAcrossGrowth(t *testing.T) {
	s := sim.NewScheduler()
	var got []uint64
	dst := NodeFunc(func(p *Packet) { got = append(got, p.ID) })
	// Infinite rate + long delay: every packet is on the wire at once
	// (pure-delay links skip the queue and go straight to propagate).
	l := NewLink("wire", s, 0, 10*time.Millisecond, 0, dst)
	const n = 100 // well past the timeline's initial 16 slots
	var id uint64
	for i := 0; i < n; i++ {
		s.AtPooled(sim.Time(i)*time.Microsecond, func() {
			id++
			l.Recv(&Packet{ID: id, Size: 100})
		})
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("delivered %d packets, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("delivery order broken at %d: got ID %d, want %d", i, v, i+1)
		}
	}
	if l.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", l.InFlight())
	}
}

// TestLinkSteadyStateZeroAllocs asserts the full per-packet hot path —
// pool Get, Recv, queue, transmit, propagate, delayed delivery off the
// wire timeline, pool Put — allocates nothing once warm.
func TestLinkSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	delivered := 0
	dst := NodeFunc(func(p *Packet) {
		delivered++
		pp.Put(p)
	})
	l := NewLink("hot", s, 1e8, 2*time.Millisecond, 1<<20, dst)
	l.Pool = pp
	send := func() {
		p := pp.Get()
		p.Size = 1400
		p.QCI = 9
		l.Recv(p)
		s.RunUntil(s.Now() + 10*time.Millisecond)
	}
	for i := 0; i < 64; i++ { // warm pools, heap, timelines and queue
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("link hot path allocates %v per packet, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestLinkStandingQueueZeroAllocs keeps a standing queue of about 100
// packets while thousands pass through, one in and one out per step.
// A dequeue that advanced the queue's slice base would erode its
// capacity and make append reallocate every cap packets; the
// drain-to-empty test above cannot see that.
func TestLinkStandingQueueZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	delivered := 0
	dst := NodeFunc(func(p *Packet) {
		delivered++
		pp.Put(p)
	})
	const rate = 1e8
	l := NewLink("standing", s, rate, 2*time.Millisecond, 0, dst)
	l.Pool = pp
	tx := time.Duration(1400 * 8 / rate * float64(time.Second)) // one packet's transmit time
	recv := func() {
		p := pp.Get()
		p.Size = 1400
		p.QCI = 9
		l.Recv(p)
	}
	for i := 0; i < 100; i++ { // build the standing queue
		recv()
	}
	cycles := func() {
		for i := 0; i < 500; i++ {
			recv()
			s.RunUntil(s.Now() + tx) // exactly one transmission completes
		}
	}
	cycles() // warm pools, timelines and the queue's backing array
	if avg := testing.AllocsPerRun(10, cycles); avg != 0 {
		t.Fatalf("standing queue allocates %v per 500 packets, want 0", avg)
	}
	if q := l.QueueLen(); q < 64 {
		t.Fatalf("queue drained to %d packets; the test needs a standing queue of at least 64", q)
	}
	if delivered < 5000 {
		t.Fatalf("only %d packets delivered", delivered)
	}
}

// TestEvictLowerPriorityZeroAllocs asserts the queue-overflow eviction
// path reuses its scratch index slice instead of allocating a map.
func TestEvictLowerPriorityZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	l := NewLink("evict", s, 1e6, 0, 3000, &Sink{})
	l.Pool = pp
	l.Gate = func(sim.Time) bool { return false } // keep the queue full
	overflow := func() {
		// Fill with low-priority, then push a high-priority packet
		// that must evict.
		for l.QueuedBytes()+1000 <= l.QueueBytes {
			p := pp.Get()
			p.Size, p.QCI = 1000, 9
			l.Recv(p)
		}
		p := pp.Get()
		p.Size, p.QCI = 1000, 5
		l.Recv(p)
	}
	for i := 0; i < 16; i++ { // warm scratch, queue and pool
		overflow()
	}
	if avg := testing.AllocsPerRun(100, overflow); avg != 0 {
		t.Fatalf("eviction path allocates %v per overflow, want 0", avg)
	}
}

// TestDropQueuedFractionReturnsPacketsToPool checks every packet the
// handover buffer flush discards goes back to the pool.
func TestDropQueuedFractionReturnsPacketsToPool(t *testing.T) {
	s := sim.NewScheduler()
	pp := &PacketPool{}
	l := NewLink("ho", s, 1e6, 0, 1<<20, &Sink{})
	l.Pool = pp
	l.Gate = func(sim.Time) bool { return false } // buffer everything
	const n = 40
	for i := 0; i < n; i++ {
		p := pp.Get()
		p.Size, p.QCI = 500, 9
		l.Recv(p)
	}
	queued := l.QueueLen()
	if queued == 0 {
		t.Fatal("nothing queued")
	}
	packets, bytes := l.DropQueuedFraction(0.5)
	if packets == 0 || bytes == 0 {
		t.Fatal("nothing dropped")
	}
	if got := uint64(len(pp.free)); got != packets {
		t.Fatalf("pool got %d packets back, %d were dropped", got, packets)
	}
	if l.QueueLen() != queued-int(packets) {
		t.Fatalf("queue len %d after dropping %d of %d", l.QueueLen(), packets, queued)
	}
	// Full flush returns the rest too.
	rest, _ := l.DropQueuedFraction(1.0)
	if got := uint64(len(pp.free)); got != packets+rest {
		t.Fatalf("pool got %d packets back after full flush, want %d", got, packets+rest)
	}
}

// TestPacketPoolCap checks Put stops retaining beyond packetPoolCap
// and counts the overflow instead.
func TestPacketPoolCap(t *testing.T) {
	pp := &PacketPool{}
	n := packetPoolCap + 500
	for i := 0; i < n; i++ {
		pp.Put(&Packet{})
	}
	if len(pp.free) != packetPoolCap {
		t.Fatalf("free list len %d, want capped at %d", len(pp.free), packetPoolCap)
	}
	if pp.Drops != 500 {
		t.Fatalf("Drops = %d, want 500", pp.Drops)
	}
	// The capped pool still serves and accepts normally.
	p := pp.Get()
	pp.Put(p)
	if len(pp.free) != packetPoolCap || pp.Drops != 500 {
		t.Fatalf("post-cap Put/Get broken: free %d drops %d", len(pp.free), pp.Drops)
	}
}
