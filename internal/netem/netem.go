// Package netem emulates the packet-level network substrate: links
// with finite rate, propagation delay and drop-tail queues, QCI-based
// priority scheduling, configurable loss models, byte meters, and
// background (cross) traffic sources.
//
// The emulated LTE core (internal/epc) and radio access network
// (internal/ran) are assembled from these parts. Where a packet is
// dropped relative to the operator's metering point is what creates
// the charging gap the paper studies, so the topology builders are
// careful about drop placement (see DESIGN.md).
package netem

import (
	"fmt"
	"time"

	"tlc/internal/sim"
)

// Direction of a packet relative to the edge device.
type Direction int

const (
	// Uplink flows from the edge device toward the edge server.
	Uplink Direction = iota
	// Downlink flows from the edge server toward the edge device.
	Downlink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "UL"
	case Downlink:
		return "DL"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Packet is one network datagram moving through the emulation. Sizes
// are in bytes and include protocol headers; the simulator does not
// carry payload bytes.
type Packet struct {
	ID         uint64
	Flow       string    // application flow identifier
	IMSI       string    // subscriber the packet belongs to
	QCI        uint8     // LTE QoS class identifier (1 = highest priority)
	Size       int       // bytes on the wire
	Dir        Direction // uplink or downlink
	Sent       sim.Time  // time the application emitted the packet
	Background bool      // cross traffic, never charged to the edge app

	// Tunneled and TEID are set while the packet rides a GTP-U
	// tunnel between the base station and the gateway.
	Tunneled bool
	TEID     uint32

	// Seq is the transport-layer sequence number for reliable flows
	// (internal/transport); zero for datagram traffic.
	Seq uint64
}

// Node consumes packets. Links, gateways, base stations, devices and
// meters all implement Node.
type Node interface {
	Recv(pkt *Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(*Packet)

// Recv implements Node.
func (f NodeFunc) Recv(pkt *Packet) { f(pkt) }

// Sink is a Node that counts and discards everything it receives.
type Sink struct {
	Packets uint64
	Bytes   uint64
}

// Recv implements Node.
func (s *Sink) Recv(pkt *Packet) {
	s.Packets++
	s.Bytes += uint64(pkt.Size)
}

// IDGen allocates packet IDs unique within one simulation.
type IDGen struct{ next uint64 }

// Next returns the next packet ID.
func (g *IDGen) Next() uint64 {
	g.next++
	return g.next
}

// PacketPool recycles Packet structs within one simulation. Traffic
// sources draw packets from the pool and every terminal point — app
// sinks, drop sites inside links and droppers, the gateway's
// detached-discard — returns them, so a steady-state cycle stops
// allocating per packet. A pool belongs to a single scheduler (one
// testbed); it is not safe for concurrent use, which is fine because
// parallel sweeps give every cell its own testbed. A nil *PacketPool
// is valid everywhere and falls back to plain allocation.
type PacketPool struct {
	free []*Packet

	// Gets/Reuses count pool traffic for allocation diagnostics.
	Gets   uint64
	Reuses uint64
	// Drops counts packets discarded at Put because the free list sat
	// at packetPoolCap: the burst's high-water mark goes to the GC
	// instead of staying pinned for the rest of the cycle.
	Drops uint64

	published bool
}

// packetPoolCap bounds the pool's free list; see PacketPool.Drops.
const packetPoolCap = 1 << 16

// Get returns a zeroed packet, reusing a recycled struct when one is
// available.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		//tlcvet:allow hotalloc — pool-less operation is the documented fallback for tiny topologies
		return &Packet{}
	}
	pp.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.Reuses++
		*p = Packet{}
		return p
	}
	//tlcvet:allow hotalloc — pool miss: allocates only until the free list warms up to the burst's high-water mark
	return &Packet{}
}

// Put returns a packet whose journey ended (delivered to its final
// consumer or dropped). The caller must not touch p afterwards.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	if len(pp.free) >= packetPoolCap {
		pp.Drops++
		return
	}
	pp.free = append(pp.free, p)
}

// LossModel decides whether a packet is lost in transit on a link.
type LossModel interface {
	Drop(pkt *Packet, now sim.Time) bool
}

// NoLoss never drops.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*Packet, sim.Time) bool { return false }

// BernoulliLoss drops each packet independently with probability P.
type BernoulliLoss struct {
	P   float64
	RNG *sim.RNG
}

// Drop implements LossModel.
func (b *BernoulliLoss) Drop(_ *Packet, _ sim.Time) bool {
	if b.P <= 0 {
		return false
	}
	if b.P >= 1 {
		return true
	}
	return b.RNG.Float64() < b.P
}

// LossFunc adapts a function to the LossModel interface; the radio
// layer uses it to drive loss from the instantaneous RSS.
type LossFunc func(pkt *Packet, now sim.Time) bool

// Drop implements LossModel.
func (f LossFunc) Drop(pkt *Packet, now sim.Time) bool { return f(pkt, now) }

// LinkStats counts what happened on a link.
type LinkStats struct {
	InPackets    uint64
	InBytes      uint64
	OutPackets   uint64
	OutBytes     uint64
	QueueDrops   uint64
	QueueDropped uint64 // bytes
	LossDrops    uint64
	LossDropped  uint64 // bytes

	// Fault-injection outcomes (see FaultInjector); all zero when no
	// injector is attached.
	FaultDrops   uint64
	FaultDropped uint64 // bytes
	FaultDups    uint64
	FaultDelays  uint64
}

// FaultAction is a fault injector's verdict for one packet. The zero
// value passes the packet through untouched. Drop wins over the other
// fields; Duplicate and ExtraDelay compose (the copy is sent clean,
// the original is delayed).
type FaultAction struct {
	Drop       bool
	Duplicate  bool
	ExtraDelay time.Duration
}

// FaultInjector decides per-packet faults on a link, consulted after
// the loss model (faults are on-the-wire events, like loss). It is
// deliberately separate from LossModel so fault sweeps can stack on
// any configured loss regime. Implementations must be deterministic
// given their own seeded RNG; internal/faults provides the standard
// one.
type FaultInjector interface {
	Apply(pkt *Packet, now sim.Time) FaultAction
}

// Link is a simplex link with a finite transmission rate, a priority
// drop-tail queue, fixed propagation delay and an optional loss model
// applied after transmission (i.e. "on the wire"). A zero RateBps
// means infinite rate (no queueing). The queue serves strictly by QCI
// priority (lower QCI first) and FIFO within a class, matching LTE's
// scheduling-based primitives that the paper credits for the
// low-latency edge (§2.1).
type Link struct {
	Name       string
	Sched      *sim.Scheduler
	RateBps    float64
	Delay      time.Duration
	QueueBytes int // queue capacity in bytes; 0 = unlimited
	Loss       LossModel
	Dst        Node

	// Inject optionally applies per-packet faults (drop bursts,
	// duplication, reordering, delay spikes) after the loss model.
	// Leave nil for a clean link; the hot path pays nothing for it.
	Inject FaultInjector

	// Gate optionally pauses the server: while Gate returns false the
	// link buffers packets instead of transmitting (the RAN uses this
	// to model base-station buffering across short radio outages).
	Gate func(now sim.Time) bool

	// RateScale optionally scales the transmission rate at each
	// serving instant; the RAN uses it to model MCS adaptation (weak
	// signal lowers the achievable rate rather than dropping IP
	// packets — HARQ recovers those). Values are clamped to a small
	// positive floor.
	RateScale func(now sim.Time) float64

	// Pool optionally recycles packets the link drops (queue
	// overflow, loss model, handover buffer flush). Leave nil when
	// packets are allocated outside a PacketPool.
	Pool *PacketPool

	Stats LinkStats

	// queue[qhead:] is the live queue in service order. Dequeues
	// advance qhead instead of re-slicing, so the backing array keeps
	// its capacity; enqueue reclaims the front slack (see enqueue).
	queue        []*Packet
	qhead        int
	queuedBytes  int
	transmitting bool

	// txq holds the transmit-done event of the packet occupying the
	// transmitter (the transmitting flag guarantees at most one), and
	// wire the packets on the wire: transmitted and loss-checked,
	// awaiting delivery after Delay. Both are FIFO timelines; see
	// send for why delivery times are monotone. gateRetryFn caches
	// the gate-poll closure (see gateRetry).
	txq         *sim.Timeline[*Packet]
	wire        *sim.Timeline[*Packet]
	gateRetryFn func()

	// evictIdx is scratch for evictLowerPriority, reused across
	// overflows so the queue-overflow path does not allocate.
	evictIdx []int

	// Per-QCI accounting for the metrics registry: offered, dropped
	// (queue, loss and fault drops combined) and delivered packets by
	// class. Flat arrays indexed by the full QCI byte keep the hot
	// path at one unconditional increment; PublishMetrics folds them
	// into the pre-registered per-class counters at a run boundary.
	qciEnq  [256]uint64
	qciDrop [256]uint64
	qciOut  [256]uint64

	published bool
}

// NewLink returns a ready link. Loss defaults to NoLoss.
func NewLink(name string, sched *sim.Scheduler, rateBps float64, delay time.Duration, queueBytes int, dst Node) *Link {
	l := &Link{
		Name:       name,
		Sched:      sched,
		RateBps:    rateBps,
		Delay:      delay,
		QueueBytes: queueBytes,
		Loss:       NoLoss{},
		Dst:        dst,
	}
	l.txq = sim.NewTimeline(sched, l.txDone)
	l.wire = sim.NewTimeline(sched, l.deliver)
	return l
}

// QueueLen returns the number of queued packets (excluding the packet
// currently in transmission).
func (l *Link) QueueLen() int { return len(l.queue) - l.qhead }

// QueuedBytes returns the number of queued bytes.
func (l *Link) QueuedBytes() int { return l.queuedBytes }

// Recv implements Node: the link accepts the packet for transmission.
//
//tlcvet:hotpath per-packet ingress; enqueue/propagate/send/deliver and the timelines are all reached from here
func (l *Link) Recv(pkt *Packet) {
	l.Stats.InPackets++
	l.Stats.InBytes += uint64(pkt.Size)
	l.qciEnq[pkt.QCI]++

	if l.RateBps <= 0 && l.Gate == nil {
		// Infinite-rate ungated link: pure delay + loss.
		l.propagate(pkt)
		return
	}

	if l.QueueBytes > 0 && l.queuedBytes+pkt.Size > l.QueueBytes {
		if !l.evictLowerPriority(pkt) {
			l.Stats.QueueDrops++
			l.Stats.QueueDropped += uint64(pkt.Size)
			l.qciDrop[pkt.QCI]++
			l.Pool.Put(pkt)
			return
		}
	}
	l.enqueue(pkt)
	l.kick()
}

// evictLowerPriority makes room for pkt by dropping strictly lower
// priority queued packets (higher QCI value) from the back of the
// queue. It reports whether enough room was freed.
func (l *Link) evictLowerPriority(pkt *Packet) bool {
	need := l.queuedBytes + pkt.Size - l.QueueBytes
	if need <= 0 {
		return true
	}
	// Scan from the back (lowest priority sits last due to priority
	// insertion) marking evictable packets. evictIdx collects the
	// victims in descending index order.
	q := l.queue[l.qhead:]
	freed := 0
	l.evictIdx = l.evictIdx[:0]
	for i := len(q) - 1; i >= 0 && freed < need; i-- {
		if q[i].QCI > pkt.QCI {
			freed += q[i].Size
			l.evictIdx = append(l.evictIdx, i)
		}
	}
	if freed < need {
		return false
	}
	// Compact in place: evictIdx is descending, so its last entry is
	// the smallest victim index.
	next := len(l.evictIdx) - 1
	keep := q[:0]
	for i, p := range q {
		if next >= 0 && i == l.evictIdx[next] {
			next--
			l.queuedBytes -= p.Size
			l.Stats.QueueDrops++
			l.Stats.QueueDropped += uint64(p.Size)
			l.qciDrop[p.QCI]++
			l.Pool.Put(p)
			continue
		}
		keep = append(keep, p)
	}
	clear(q[len(keep):])
	l.queue = l.queue[:l.qhead+len(keep)]
	return true
}

// enqueue inserts by QCI priority (stable within a class). When the
// backing array is full and at least half of it is dead front slack
// left by dequeues, the live queue moves back to the front first, so
// a standing queue reuses one array instead of reallocating every
// cap packets; the copy is amortised over the dequeues that freed
// the slack.
func (l *Link) enqueue(pkt *Packet) {
	if len(l.queue) == cap(l.queue) && 2*l.qhead >= len(l.queue) && l.qhead > 0 {
		n := copy(l.queue, l.queue[l.qhead:])
		clear(l.queue[n:])
		l.queue = l.queue[:n]
		l.qhead = 0
	}
	i := len(l.queue)
	for i > l.qhead && l.queue[i-1].QCI > pkt.QCI {
		i--
	}
	l.queue = append(l.queue, nil)
	copy(l.queue[i+1:], l.queue[i:])
	l.queue[i] = pkt
	l.queuedBytes += pkt.Size
}

// kick starts the transmitter if idle.
func (l *Link) kick() {
	if l.transmitting || l.QueueLen() == 0 {
		return
	}
	if l.Gate != nil && !l.Gate(l.Sched.Now()) {
		// Gated closed: retry shortly. The RAN re-kicks links on
		// radio state changes, but polling keeps the model safe even
		// if it forgets.
		l.transmitting = true
		l.Sched.AfterPooled(10*time.Millisecond, l.gateRetry())
		return
	}
	pkt := l.queue[l.qhead]
	l.queue[l.qhead] = nil
	l.qhead++
	if l.qhead == len(l.queue) {
		// Drained: rewind to the backing array's start.
		l.queue = l.queue[:0]
		l.qhead = 0
	}
	l.queuedBytes -= pkt.Size
	l.transmitting = true
	tx := time.Duration(0)
	if l.RateBps > 0 {
		rate := l.RateBps
		if l.RateScale != nil {
			scale := l.RateScale(l.Sched.Now())
			if scale < 0.01 {
				scale = 0.01
			}
			rate *= scale
		}
		tx = time.Duration(float64(pkt.Size*8) / rate * float64(time.Second))
	}
	l.txq.After(tx, pkt)
}

// gateRetry returns the per-link gate-poll closure, allocated once
// and reused for every retry.
func (l *Link) gateRetry() func() {
	if l.gateRetryFn == nil {
		//tlcvet:allow hotalloc — allocated once per link on first use, then cached in gateRetryFn
		l.gateRetryFn = func() {
			l.transmitting = false
			l.kick()
		}
	}
	return l.gateRetryFn
}

// txDone runs when pkt's transmission completes: it frees the
// transmitter, puts the packet on the wire and serves the next one.
func (l *Link) txDone(pkt *Packet) {
	l.transmitting = false
	l.propagate(pkt)
	l.kick()
}

// propagate applies the loss model and fault injector, then puts the
// packet on the wire.
func (l *Link) propagate(pkt *Packet) {
	if l.Loss != nil && l.Loss.Drop(pkt, l.Sched.Now()) {
		l.Stats.LossDrops++
		l.Stats.LossDropped += uint64(pkt.Size)
		l.qciDrop[pkt.QCI]++
		l.Pool.Put(pkt)
		return
	}
	if l.Inject != nil {
		act := l.Inject.Apply(pkt, l.Sched.Now())
		if act.Drop {
			l.Stats.FaultDrops++
			l.Stats.FaultDropped += uint64(pkt.Size)
			l.qciDrop[pkt.QCI]++
			l.Pool.Put(pkt)
			return
		}
		if act.Duplicate {
			l.Stats.FaultDups++
			dup := l.Pool.Get()
			*dup = *pkt
			l.send(dup, 0)
		}
		if act.ExtraDelay > 0 {
			l.Stats.FaultDelays++
			l.send(pkt, act.ExtraDelay)
			return
		}
	}
	l.send(pkt, 0)
}

// send puts the packet on the wire. extra == 0 is the normal path:
// the packet joins the wire timeline for delivery at now+Delay.
// Simulated time never decreases and Delay is fixed per link, so
// those times are non-decreasing, as the timeline requires (mutating
// Delay with packets in flight makes it panic). extra > 0 (a fault's
// reorder hold or delay spike) deliberately breaks the link's FIFO
// order, so those packets bypass the timeline with a dedicated
// per-packet heap event; only faulted packets pay its allocation.
func (l *Link) send(pkt *Packet, extra time.Duration) {
	if extra > 0 {
		p := pkt
		//tlcvet:allow hotalloc — out-of-FIFO delivery must bypass the wire timeline (see doc comment); only faulted packets pay this closure
		l.Sched.After(l.Delay+extra, func() { l.deliver(p) })
		return
	}
	if l.Delay > 0 {
		l.wire.After(l.Delay, pkt)
	} else {
		l.deliver(pkt)
	}
}

// deliver hands the packet to the destination, counting it out.
func (l *Link) deliver(pkt *Packet) {
	l.Stats.OutPackets++
	l.Stats.OutBytes += uint64(pkt.Size)
	l.qciOut[pkt.QCI]++
	if l.Dst != nil {
		l.Dst.Recv(pkt)
	}
}

// InFlight returns the number of packets propagating on the wire
// (transmitted, not yet delivered).
func (l *Link) InFlight() int { return l.wire.Len() }

// Kick re-evaluates the transmitter; the RAN calls it when a gate
// opens so buffered packets flush immediately.
func (l *Link) Kick() { l.kick() }

// DropQueuedFraction discards the given fraction of queued bytes from
// the back of the queue (newest first), counting them as queue drops.
// The RAN's handover model uses it for source-cell buffer loss.
func (l *Link) DropQueuedFraction(frac float64) (packets, bytes uint64) {
	if frac <= 0 || l.QueueLen() == 0 {
		return 0, 0
	}
	target := int(float64(l.queuedBytes) * frac)
	dropped := 0
	i := len(l.queue)
	for i > l.qhead && dropped < target {
		i--
		q := l.queue[i]
		dropped += q.Size
		packets++
		bytes += uint64(q.Size)
		l.Stats.QueueDrops++
		l.Stats.QueueDropped += uint64(q.Size)
		l.qciDrop[q.QCI]++
		l.Pool.Put(q)
	}
	clear(l.queue[i:])
	l.queue = l.queue[:i]
	if i == l.qhead {
		l.queue = l.queue[:0]
		l.qhead = 0
	}
	l.queuedBytes -= dropped
	return packets, bytes
}
