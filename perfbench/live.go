package main

import (
	"bufio"
	"crypto/rsa"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tlc/internal/core"
	"tlc/internal/ledger"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/session"
	"tlc/internal/sim"
)

// The live stack as tlcd -ledger-dir runs it: one engine, the default
// 8 shards, 2 crypto workers, a DirFS ledger at the default SyncEvery
// of 16, and a client on 2 mux connections over loopback.
const (
	liveConns   = 2
	liveWorkers = 2
	// settleRate is the open loop's offered rate. It stays under a
	// third of the slowest closed-loop capacity seen on a 2-CPU host
	// (about 1300/s), so a slow host phase cannot grow a backlog.
	settleRate = 400
	// saturateWindow is the closed loop's outstanding-session window:
	// deep enough to keep both crypto workers batching, far below the
	// engine's admission limits, so nothing is rejected.
	saturateWindow = 64
	// saturatePerSecond sizes saturate's fixed session count from
	// --seconds, at roughly half the capacity of a 2-CPU host.
	saturatePerSecond = 900
	// liveWarmup sessions run in an open loop at settleRate at the end
	// of set-up, so the measured phase starts with warm caches,
	// connections and heap.
	liveWarmup = 256
	// liveSetupRounds splits the pre-signing of opening claims into
	// equal rounds; set-up time counts them at their median.
	liveSetupRounds = 4
	// settledX is what every settlement must agree on: the paper's
	// running example, 3% loss on 1 MB, optimal strategies on both
	// sides, x̂ = 965000 in one round.
	settledX = 965000
	// stageTolerancePct is how far the settle stage means (lateness,
	// reply, client handle, ack) may miss the end-to-end mean.
	stageTolerancePct = 5
	// proofSample is how many stored proofs are re-verified per run.
	proofSample = 64
)

var (
	livePlan = poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5}
	liveView = core.View{Sent: 1_000_000, Received: 930_000}
)

func settleSize(seconds int) work   { return work{n: settleRate * seconds} }
func saturateSize(seconds int) work { return work{n: saturatePerSecond * seconds} }

func runSettle(cfg runConfig) (*outcome, error)   { return runLive(cfg, true) }
func runSaturate(cfg runConfig) (*outcome, error) { return runLive(cfg, false) }

// liveSession is one client-side negotiation. due and sent are
// written by the sender, the rest by the connection's reader; the
// timestamps are ns from the run's base.
type liveSession struct {
	sid     uint64
	m       session.Machine
	opening []byte
	due     int64
	sent    atomic.Int64
	cda     int64 // CDA frame read
	hStart  int64 // client Machine.Handle entered
	hEnd    int64 // client Machine.Handle returned
	poc     int64 // PoC frame written
	done    int64 // TypeDone frame read
	state   int   // 0 open, 1 settled, 2 failed
	badX    bool
}

// liveConn is one client mux connection. wmu serialises the sender's
// openings and the reader's PoCs onto the wire.
type liveConn struct {
	conn      net.Conn
	count     *countingConn // nil when untraced
	wmu       sync.Mutex
	bw        *bufio.Writer
	buf       []byte
	framesOut int // guarded by wmu
	framesIn  int // reader-owned
	env       session.Env
}

func (c *liveConn) write(typ byte, sid uint64, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.buf = session.AppendMux(c.buf[:0], typ, sid, payload)
	if err := protocol.WriteFrame(c.bw, c.buf); err != nil {
		return err
	}
	c.framesOut++
	return c.bw.Flush()
}

// liveRun is one bring-up of the stack plus its client.
type liveRun struct {
	cfg      runConfig
	open     bool
	base     time.Time
	led      *ledger.Ledger
	ledDir   string
	fs       *timedFS // nil when untraced
	eng      *session.Engine
	ln       net.Listener
	serveWG  sync.WaitGroup
	conns    []*liveConn
	sessions []*liveSession

	appendErrs atomic.Int64
	appendMu   sync.Mutex
	appendUS   []float64

	peakActive int64 // Engine.PeakActive, read at tear-down

	// warm is the set-up's open-loop warm-up; measured follows it.
	warm, measured []*liveSession
	// pending counts the current phase's unresolved sessions; the
	// reader that resolves the last one signals phaseDone.
	pending   atomic.Int64
	phaseDone chan struct{}
	// window holds one token per outstanding closed-loop session.
	window chan struct{}
}

func runLive(cfg runConfig, open bool) (*outcome, error) {
	o := newOutcome()
	l := &liveRun{cfg: cfg, open: open,
		phaseDone: make(chan struct{}, 1),
		window:    make(chan struct{}, saturateWindow)}
	t0 := time.Now()
	defer l.tearDown() //tlcvet:allow errdiscard — error paths only; the success path checks tearDown below
	if err := l.bringUp(); err != nil {
		return nil, err
	}
	if err := l.presign(o); err != nil {
		return nil, err
	}
	l.base = time.Now()
	readers := l.startReaders()
	if !l.runPhase(l.warm, true) {
		l.stopReaders(readers)
		return nil, errors.New("warm-up sessions did not resolve")
	}
	o.setupFixed = time.Since(t0).Seconds() - sum(o.setupRounds)

	m := startMeter()
	l.runPhase(l.measured, l.open)
	o.phase = m.stop()
	l.stopReaders(readers)

	if err := l.tearDown(); err != nil {
		return nil, err
	}
	l.account(o)
	if err := l.checkLedger(o); err != nil {
		return nil, err
	}
	return o, nil
}

// bringUp opens the ledger, starts the engine behind a loopback
// listener and handshakes the client connections.
func (l *liveRun) bringUp() error {
	l.ledDir = filepath.Join(l.cfg.dir, "ledger")
	var fsys ledger.FS = ledger.DirFS{}
	if l.cfg.tracer != nil {
		l.fs = &timedFS{FS: ledger.DirFS{}, tr: l.cfg.tracer}
		fsys = l.fs
	}
	led, err := ledger.Open(ledger.Options{Dir: l.ledDir, FS: fsys}, nil)
	if err != nil {
		return fmt.Errorf("open ledger: %w", err)
	}
	l.led = led

	ec := session.EngineConfig{
		Config: session.Config{
			Role: poc.RoleOperator, Plan: livePlan, Key: l.cfg.keys.op,
			Strategy: core.OptimalStrategy{}, View: liveView,
		},
		Workers:  liveWorkers,
		Seed:     l.cfg.seed,
		Recorder: l.record,
	}
	if tr := l.cfg.tracer; tr != nil {
		ec.Stopwatch = func() float64 { return time.Since(tr.base).Seconds() }
	}
	l.eng, err = session.NewEngine(ec)
	if err != nil {
		return err
	}
	l.eng.Start()
	l.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.serveWG.Add(1)
	go accept(l.ln, l.eng, &l.serveWG)

	ownDER, err := x509.MarshalPKIXPublicKey(&l.cfg.keys.edge.PublicKey)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(l.cfg.seed).Fork("client")
	for i := 0; i < liveConns; i++ {
		raw, err := net.Dial("tcp", l.ln.Addr().String())
		if err != nil {
			return err
		}
		c := &liveConn{conn: raw, env: session.Env{RNG: rng.Fork(fmt.Sprint("conn", i))}}
		c.env.Nonce = c.env.RNG.Fork("nonce")
		if l.cfg.tracer != nil {
			c.count = &countingConn{Conn: raw}
			c.conn = c.count
		}
		c.bw = bufio.NewWriter(c.conn)
		l.conns = append(l.conns, c)
		if err := protocol.WriteFrame(c.conn, session.Hello(ownDER)); err != nil {
			return fmt.Errorf("hello: %w", err)
		}
		der, err := protocol.ReadFrame(c.conn)
		if err != nil {
			return fmt.Errorf("server key: %w", err)
		}
		pub, err := x509.ParsePKIXPublicKey(der)
		if err != nil {
			return fmt.Errorf("server key: %w", err)
		}
		if rk, ok := pub.(*rsa.PublicKey); !ok || !rk.Equal(&l.cfg.keys.op.PublicKey) {
			return errors.New("server key is not the operator key")
		}
	}
	return nil
}

// accept serves each connection on eng until ln closes, then waits for
// the connection handlers.
func accept(ln net.Listener, eng *session.Engine, done *sync.WaitGroup) {
	defer done.Done()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close() //tlcvet:allow errdiscard — server side of a loopback conn the client closes first
			hello, err := protocol.ReadFrame(conn)
			if err != nil {
				return
			}
			_ = eng.ServeConn(conn, hello) // ends when the client closes
		}()
	}
}

// record is the engine Recorder: it appends each settlement's proof
// to the ledger, as tlcd -ledger-dir does, timing the append when
// traced.
func (l *liveRun) record(pr session.ProofRecord) {
	rec := ledger.Record{
		Kind: ledger.KindPoC, Cycle: 1, Subscriber: pr.PeerFP,
		X: pr.X, Rounds: uint32(pr.Rounds), Proof: pr.Proof,
	}
	tr := l.cfg.tracer
	if tr == nil {
		if err := l.led.Append(&rec); err != nil {
			l.appendErrs.Add(1)
		}
		return
	}
	t0 := tr.now()
	err := l.led.Append(&rec)
	t1 := tr.now()
	if err != nil {
		l.appendErrs.Add(1)
	}
	tr.add(pr.SID, "ledger.append", "", t0, t1)
	l.appendMu.Lock()
	l.appendUS = append(l.appendUS, float64(t1-t0)/1e3)
	l.appendMu.Unlock()
}

// presign signs every session's opening claim (client Machine.Start)
// ahead of the measured phase, in equal rounds across both CPUs.
func (l *liveRun) presign(o *outcome) error {
	warmup := liveWarmup
	if l.cfg.work.tiny {
		warmup = 8
	}
	n := warmup + l.cfg.work.n
	l.sessions = make([]*liveSession, n)
	clientCfg := &session.Config{
		Role: poc.RoleEdge, Plan: livePlan, Key: l.cfg.keys.edge,
		Strategy: core.OptimalStrategy{}, View: liveView,
	}
	rng := sim.NewRNG(l.cfg.seed)
	// Arrivals are evenly spaced at settleRate. Poisson bursts would
	// turn the host's own speed swings into queueing tails that vary
	// more from run to run than anything the program does.
	for i := range l.sessions {
		k := i
		if i >= warmup {
			k = i - warmup // due times are offsets from their phase's start
		}
		due := int64(k+1) * int64(time.Second) / settleRate
		l.sessions[i] = &liveSession{sid: uint64(i) + 1, due: due}
	}
	l.warm, l.measured = l.sessions[:warmup], l.sessions[warmup:]
	var signUS []float64
	var mu sync.Mutex
	for r := 0; r < liveSetupRounds; r++ {
		lo, hi := r*n/liveSetupRounds, (r+1)*n/liveSetupRounds
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, liveWorkers)
		for w := 0; w < liveWorkers; w++ {
			// Forking draws from the parent, so it happens here, in
			// order, not on the signing goroutines.
			env := session.Env{RNG: rng.Fork(fmt.Sprint("open", r, ".", w))}
			env.Nonce = env.RNG.Fork("nonce")
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var local []float64
				for i := lo + w; i < hi; i += liveWorkers {
					s := l.sessions[i]
					s.m.Init(clientCfg, &l.cfg.keys.op.PublicKey)
					t := time.Now()
					err := s.m.Start(&env, func(msg []byte) error {
						s.opening = append(s.opening, msg...)
						return nil
					})
					local = append(local, float64(time.Since(t).Nanoseconds())/1e3)
					if err != nil {
						errs[w] = err
						return
					}
				}
				mu.Lock()
				signUS = append(signUS, local...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return fmt.Errorf("sign opening: %w", err)
		}
		o.setupRounds = append(o.setupRounds, time.Since(t0).Seconds())
	}
	o.layers["poc.open_sign_us"] = quantile(signUS, 0.5)
	return nil
}

// startReaders runs one reader per client connection until the
// connection closes.
func (l *liveRun) startReaders() *sync.WaitGroup {
	var readers sync.WaitGroup
	for _, c := range l.conns {
		readers.Add(1)
		go func(c *liveConn) {
			defer readers.Done()
			l.readLoop(c)
		}(c)
	}
	return &readers
}

// stopReaders closes the client side, which ends the readers and the
// server's connection handlers, and waits for the readers.
func (l *liveRun) stopReaders(readers *sync.WaitGroup) {
	for _, c := range l.conns {
		_ = c.conn.Close() // the readers' read error is the expected end
	}
	readers.Wait()
}

// runPhase sends sessions and waits until all resolve or the phase
// limit passes; it reports whether all resolved. An open loop sends
// each session at its due time (offsets from the phase start), a
// closed loop keeps saturateWindow sessions outstanding.
func (l *liveRun) runPhase(sessions []*liveSession, open bool) bool {
	start := since(l.base)
	for _, s := range sessions {
		s.due += start
	}
	l.pending.Store(int64(len(sessions)))
	stop := make(chan struct{})
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		l.send(sessions, open, stop)
	}()
	limit := time.NewTimer(l.phaseLimit(len(sessions)))
	defer limit.Stop()
	done := false
	select {
	case <-l.phaseDone:
		done = true
	case <-limit.C:
	}
	close(stop)
	sender.Wait()
	return done
}

// phaseLimit bounds a phase: twice the open loop's length plus slack,
// after which unresolved sessions count as failed.
func (l *liveRun) phaseLimit(n int) time.Duration {
	return 2*time.Duration(n)*time.Second/settleRate + 20*time.Second
}

func (l *liveRun) send(sessions []*liveSession, open bool, stop <-chan struct{}) {
	for _, s := range sessions {
		if open {
			// Inter-arrival gaps are milliseconds, so a plain sleep
			// bounds how long a stop can go unnoticed.
			if d := time.Duration(s.due - since(l.base)); d > 0 {
				time.Sleep(d)
			}
			select {
			case <-stop:
				return
			default:
			}
		} else {
			select {
			case l.window <- struct{}{}:
			case <-stop:
				return
			}
		}
		now := since(l.base)
		if !open {
			s.due = now
		}
		s.sent.Store(now)
		c := l.conns[s.sid%liveConns]
		if err := c.write(session.TypeData, s.sid, s.opening); err != nil {
			return // the connection is gone; the phase limit fails the rest
		}
	}
}

func (l *liveRun) readLoop(c *liveConn) {
	fr := protocol.NewFrameReader(c.conn)
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			return
		}
		at := since(l.base)
		c.framesIn++
		typ, sid, payload, err := session.DecodeMux(frame)
		if err != nil || sid == 0 || sid > uint64(len(l.sessions)) {
			continue
		}
		s := l.sessions[sid-1]
		if s.state != 0 {
			continue
		}
		switch typ {
		case session.TypeData:
			s.cda = at
			s.hStart = since(l.base)
			finished, herr := s.m.Handle(payload, &c.env, func(msg []byte) error {
				err := c.write(session.TypeData, sid, msg)
				s.poc = since(l.base)
				return err
			})
			s.hEnd = since(l.base)
			switch {
			case herr != nil:
				_ = c.write(session.TypeReject, sid, []byte{session.RejectFailed}) // best effort; the session already failed
				l.resolve(s, 2)
			case finished && !s.m.Finisher():
				// The operator signed the final PoC: settled, no ack.
				s.poc, s.done = s.hEnd, s.hEnd
				s.badX = s.m.X() != settledX
				l.resolve(s, 1)
			}
		case session.TypeDone:
			s.done = at
			ok := len(payload) == 8 && s.m.Done() && s.m.Finisher() &&
				binary.BigEndian.Uint64(payload) == s.m.X()
			s.badX = s.m.X() != settledX
			if ok {
				l.resolve(s, 1)
			} else {
				l.resolve(s, 2)
			}
		case session.TypeReject:
			l.resolve(s, 2)
		}
	}
}

func (l *liveRun) resolve(s *liveSession, state int) {
	s.state = state
	select {
	case <-l.window: // a closed-loop session frees its slot
	default:
	}
	if l.pending.Add(-1) == 0 {
		l.phaseDone <- struct{}{}
	}
}

// tearDown stops the stack in dependency order; it is idempotent so
// error paths can defer it.
func (l *liveRun) tearDown() error {
	for _, c := range l.conns {
		_ = c.conn.Close() // may already be closed by measure
	}
	l.conns = nil
	if l.ln != nil {
		_ = l.ln.Close() // ends the accept loop
		l.ln = nil
	}
	l.serveWG.Wait()
	if l.eng != nil {
		l.peakActive = l.eng.PeakActive()
		l.eng.Stop()
		l.eng = nil
	}
	if l.led != nil {
		err := l.led.Close()
		l.led = nil
		if err != nil {
			return fmt.Errorf("close ledger: %w", err)
		}
	}
	return nil
}

// account turns the per-session timestamps into the outcome.
func (l *liveRun) account(o *outcome) {
	tr := l.cfg.tracer
	var late, reply, handle, ack []float64
	badX := 0
	o.attempted = int64(len(l.measured))
	o.latMS = make([]float64, 0, len(l.measured))
	for _, s := range l.sessions {
		if s.badX {
			badX++
		}
	}
	for _, s := range l.measured {
		if s.state != 1 {
			o.failed++
			continue
		}
		sent := s.sent.Load()
		o.latMS = append(o.latMS, float64(s.done-s.due)/1e6)
		late = append(late, float64(sent-s.due)/1e6)
		reply = append(reply, float64(s.cda-sent)/1e6)
		handle = append(handle, float64(s.hEnd-s.hStart)/1e6)
		ack = append(ack, float64(s.done-s.poc)/1e6)
		if tr != nil {
			off := int64(l.base.Sub(tr.base))
			tr.add(s.sid, "settle", "", off+s.due, off+s.done)
			tr.add(s.sid, "loadgen.late", "settle", off+s.due, off+sent)
			tr.add(s.sid, "session.reply", "settle", off+sent, off+s.cda)
			tr.add(s.sid, "poc.client_handle", "settle", off+s.hStart, off+s.hEnd)
			tr.add(s.sid, "session.ack", "settle", off+s.poc, off+s.done)
		}
	}
	o.check(badX == 0, "%d settlements disagree with X = %d", badX, settledX)
	o.check(l.appendErrs.Load() == 0, "%d ledger appends failed", l.appendErrs.Load())

	stages := mean(late) + mean(reply) + mean(handle) + mean(ack)
	gap := stageGapPct(stages, mean(o.latMS))
	if tr != nil {
		o.check(gap <= stageTolerancePct && gap >= -stageTolerancePct,
			"stage means sum to %.4f ms, end-to-end mean %.4f ms (%.2f%% apart, tolerance %d%%)",
			stages, mean(o.latMS), gap, stageTolerancePct)
	}
	p := o.phase
	ops := max(o.ops(), 1)
	o.layers["session.reply_ms_p50"] = quantile(reply, 0.5)
	o.layers["session.ack_ms_p50"] = quantile(ack, 0.5)
	o.layers["session.server_ms_mean"] = 1e3 * p.ratio("protocol_negotiate_seconds_sum", "protocol_negotiate_seconds_count")
	o.layers["session.batch_mean"] = p.ratio("session_crypto_batch_size_sum", "session_crypto_batch_size_count")
	o.layers["session.peak_active"] = float64(l.peakActive)
	o.layers["session.rejected"] = p.delta("sessions_rejected_total")
	o.layers["session.failed"] = p.delta("sessions_failed_total")
	o.layers["session.stage_gap_pct"] = gap
	o.layers["poc.client_handle_us"] = 1e3 * quantile(handle, 0.5)
	if l.open {
		o.layers["loadgen.late_ms_p99"] = quantile(late, 0.99)
	}
	var bytes, frames float64
	for _, c := range l.conns {
		frames += float64(c.framesIn + c.framesOut)
		if c.count != nil {
			bytes += float64(c.count.in.Load() + c.count.out.Load())
		}
	}
	o.layers["protocol.bytes_per_op"] = bytes / ops
	o.layers["protocol.frames_per_op"] = frames / ops
	o.layers["ledger.append_us_p50"] = quantile(l.appendUS, 0.5)
	o.layers["ledger.append_us_p99"] = quantile(l.appendUS, 0.99)
	if l.fs != nil {
		syncs := l.fs.syncMS()
		o.layers["ledger.fsync_ms_p50"] = quantile(syncs, 0.5)
		o.layers["ledger.fsync_ms_p99"] = quantile(syncs, 0.99)
	}
	o.layers["ledger.appends_per_fsync"] = p.ratio("ledger_appends_total", "ledger_syncs_total")
	o.layers["ledger.bytes_per_record"] = p.ratio("ledger_appended_bytes_total", "ledger_appends_total")
}

// stageGapPct is how far the sum of stage means misses the
// end-to-end mean, in percent of the latter.
func stageGapPct(stages, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * (stages - total) / total
}

// checkLedger replays the closed ledger: one KindPoC record per
// settlement, every sampled proof re-verifying under Algorithm 2.
func (l *liveRun) checkLedger(o *outcome) error {
	var proofs [][]byte
	count := 0
	t0 := time.Now()
	err := ledger.Replay(ledger.DirFS{}, l.ledDir, func(rec *ledger.Record) error {
		if rec.Kind != ledger.KindPoC {
			return nil
		}
		count++
		if rec.X != settledX {
			return fmt.Errorf("stored X = %d, want %d", rec.X, settledX)
		}
		proofs = append(proofs, append([]byte(nil), rec.Proof...))
		return nil
	})
	replayS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("replay ledger: %w", err)
	}
	if replayS > 0 {
		o.layers["ledger.replay_records_per_s"] = float64(count) / replayS
	}
	settled := 0
	for _, s := range l.sessions {
		if s.state == 1 {
			settled++
		}
	}
	o.check(count == settled, "ledger replays %d proofs, %d sessions settled", count, settled)
	verr := verifySample(proofs, &l.cfg.keys.edge.PublicKey, &l.cfg.keys.op.PublicKey)
	o.check(verr == nil, "stored proof failed re-verification: %v", verr)
	return nil
}

// verifySample re-verifies up to proofSample evenly spaced proofs with
// poc.VerifyStateless.
func verifySample(proofs [][]byte, edge, op *rsa.PublicKey) error {
	if len(proofs) == 0 {
		return nil
	}
	step := max(1, len(proofs)/proofSample)
	for i := 0; i < len(proofs); i += step {
		var p poc.PoC
		if err := p.UnmarshalBinary(proofs[i]); err != nil {
			return fmt.Errorf("proof %d: %w", i, err)
		}
		if err := poc.VerifyStateless(&p, livePlan, edge, op); err != nil {
			return fmt.Errorf("proof %d: %w", i, err)
		}
		if p.X != settledX {
			return fmt.Errorf("proof %d: X = %d, want %d", i, p.X, settledX)
		}
	}
	return nil
}
