package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"tlc/internal/core"
	"tlc/internal/ledger"
	"tlc/internal/poc"
	"tlc/internal/session"
	"tlc/internal/sim"
)

// The ledger workload is an operator's billing store with an auditor
// re-reading it (the trusted third-party billing model): per billing
// cycle, KindPoC appends across many subscribers, MarkSettled, Audit
// of sampled subscribers, and Compact every few cycles. Each epoch
// starts a fresh ledger so the cost of an op does not grow with the
// run.
//
// The ledger runs on a MemFS: the workload measures the ledger's own
// write and read paths, and on a shared VM disk the fsync and
// page-cache costs drift by 40% between sets of runs, which would bury
// any change to that code. Real fsyncs stay in settle and saturate,
// whose DirFS ledgers report ledger.fsync_ms_* per layer; here those
// read 0, as a MemFS Sync is no fsync. An audit re-reads, and a
// compaction rewrites, every record stored so far, a compaction at
// about twice the cost of appending it. Short epochs (two cycles, one
// audit per cycle, a compaction every second cycle) keep the append
// phase at a quarter to a third of the wall time; longer ones or more
// audits shrink it (ledger.write_frac reports the split).
const (
	ledgerSubscribers   = 256
	ledgerPerSubscriber = 4 // KindPoC records per subscriber per cycle
	ledgerCycles        = 2 // billing cycles per epoch
	ledgerCompactEvery  = 2
	ledgerAudits        = 1 // subscribers audited per cycle
	ledgerCorpus        = 1024
	ledgerSetupRounds   = 8
	// ledgerGroup appends are timed together, one group-commit window
	// at the default SyncEvery: a single in-memory append is a few
	// hundred ns, close to the clock's resolution, so the latency of an
	// op is its group's time per record.
	ledgerGroup = 16
	// ledgerEpochsPer10s sizes the epoch count from --seconds.
	ledgerEpochsPer10s = 600
)

func ledgerSize(seconds int) work { return work{n: max(1, seconds*ledgerEpochsPer10s/10)} }

// proof is one settled negotiation's stored form.
type proof struct {
	bytes  []byte
	x      uint64
	rounds uint32
}

// ledgerRun is one ledger workload pass: the set-up's corpus and
// subscribers, and what the measured epochs accumulate.
type ledgerRun struct {
	cfg                runConfig
	o                  *outcome
	corpus             []proof
	subIDs             []string
	perSub, cycles     int
	pick               *sim.RNG
	base               time.Time
	auditMS, compactMS []float64
	replayRate         []float64
	appendS, totalS    float64
	proofs             [][]byte
}

func runLedger(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	l := &ledgerRun{cfg: cfg, o: o,
		perSub: ledgerPerSubscriber, cycles: ledgerCycles}
	subs, corpus := ledgerSubscribers, ledgerCorpus
	if cfg.work.tiny {
		subs, corpus, l.perSub, l.cycles = 8, ledgerSetupRounds, 2, ledgerCompactEvery+1
	}

	// Set-up: the proof corpus, made by real negotiations in equal
	// rounds across both CPUs, the subscriber identities, and one
	// warm-up epoch so the measured epochs start with a warm heap.
	rng := sim.NewRNG(cfg.seed)
	l.corpus = make([]proof, corpus)
	for r := 0; r < ledgerSetupRounds; r++ {
		lo, hi := r*corpus/ledgerSetupRounds, (r+1)*corpus/ledgerSetupRounds
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, liveWorkers)
		for w := 0; w < liveWorkers; w++ {
			// Forking draws from the parent, so it happens here, in
			// order, not on the negotiating goroutines.
			env := session.Env{RNG: rng.Fork(fmt.Sprint("corpus", r, ".", w))}
			env.Nonce = env.RNG.Fork("nonce")
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := lo + w; i < hi; i += liveWorkers {
					p, err := negotiate(cfg.keys, &env)
					if err != nil {
						errs[w] = err
						return
					}
					l.corpus[i] = p
				}
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		o.setupRounds = append(o.setupRounds, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	l.subIDs = make([]string, subs)
	for i := range l.subIDs {
		var b [16]byte
		binary.BigEndian.PutUint64(b[:], uint64(cfg.seed))
		binary.BigEndian.PutUint64(b[8:], uint64(i))
		h := sha256.Sum256(b[:])
		l.subIDs[i] = hex.EncodeToString(h[:])
	}
	l.pick = rng.Fork("pick")
	if err := l.epoch(-1, false); err != nil {
		return nil, err
	}
	o.setupFixed = time.Since(t0).Seconds()

	o.latMS = make([]float64, 0, cfg.work.n*l.cycles*(l.perSub*subs/ledgerGroup+1))
	m := startMeter()
	l.base = time.Now()
	for e := 0; e < cfg.work.n; e++ {
		if err := l.epoch(e, true); err != nil {
			return nil, err
		}
	}
	o.phase = m.stop()

	verr := verifySample(l.proofs, &cfg.keys.edge.PublicKey, &cfg.keys.op.PublicKey)
	o.check(verr == nil, "stored proof failed re-verification: %v", verr)

	p := o.phase
	o.layers["ledger.append_us_p50"] = 1e3 * quantile(o.latMS, 0.5)
	o.layers["ledger.append_us_p99"] = 1e3 * quantile(o.latMS, 0.99)
	o.layers["ledger.appends_per_fsync"] = p.ratio("ledger_appends_total", "ledger_syncs_total")
	o.layers["ledger.bytes_per_record"] = p.ratio("ledger_appended_bytes_total", "ledger_appends_total")
	o.layers["ledger.audit_ms_p50"] = quantile(l.auditMS, 0.5)
	o.layers["ledger.compact_ms"] = mean(l.compactMS)
	o.layers["ledger.replay_records_per_s"] = quantile(l.replayRate, 0.5)
	if l.totalS > 0 {
		o.layers["ledger.write_frac"] = l.appendS / l.totalS
	}
	return o, nil
}

// epoch runs the billing cycles of one fresh ledger, then replays it.
// Only a measured epoch records latencies, counts ops and feeds the
// per-layer figures; every epoch runs the output checks.
func (l *ledgerRun) epoch(e int, measured bool) error {
	o, tr := l.o, l.cfg.tracer
	subs := len(l.subIDs)
	dir := filepath.Join(l.cfg.dir, fmt.Sprint("epoch", e))
	// A fresh MemFS per epoch keeps memory bounded by one epoch.
	fsys := ledger.NewMemFS()
	led, err := ledger.Open(ledger.Options{Dir: dir, FS: fsys}, nil)
	if err != nil {
		return fmt.Errorf("open ledger: %w", err)
	}
	appended := 0
	for c := 1; c <= l.cycles; c++ {
		cycle := uint64(c)
		cs := time.Now()
		n := l.perSub * subs
		for g := 0; g < n; g += ledgerGroup {
			end := min(g+ledgerGroup, n)
			a0 := time.Now()
			for j := g; j < end; j++ {
				p := l.corpus[(c*n+j)%len(l.corpus)]
				rec := ledger.Record{Kind: ledger.KindPoC, Cycle: cycle, Subscriber: l.subIDs[j%subs],
					X: p.x, Rounds: p.rounds, Proof: p.bytes}
				if err := led.Append(&rec); err != nil {
					if measured {
						o.failed++
					}
					continue
				}
				appended++
			}
			if measured {
				o.attempted += int64(end - g)
				o.latMS = append(o.latMS, float64(time.Since(a0).Nanoseconds())/1e6/float64(end-g))
			}
		}
		if err := led.MarkSettled(cycle); err != nil {
			return fmt.Errorf("mark settled: %w", err)
		}
		ae := time.Now()

		// The auditor's view of sampled subscribers.
		sample := make([]string, ledgerAudits)
		before := make([]auditTotals, ledgerAudits)
		var auditMS, compactMS []float64
		for k := range sample {
			sample[k] = l.subIDs[l.pick.Intn(subs)]
			a0 := time.Now()
			rep, err := ledger.Audit(fsys, dir, sample[k], cycle)
			if err != nil {
				return err
			}
			auditMS = append(auditMS, float64(time.Since(a0).Nanoseconds())/1e6)
			before[k] = totalsOf(rep)
			o.check(before[k].pocs == l.perSub && before[k].settled,
				"epoch %d cycle %d: audit of %s found %d proofs (settled %v), want %d settled",
				e, c, sample[k][:8], before[k].pocs, before[k].settled, l.perSub)
		}
		if c%ledgerCompactEvery == 0 {
			c0 := time.Now()
			if err := led.Compact(); err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			compactMS = append(compactMS, float64(time.Since(c0).Nanoseconds())/1e6)
			for k, sub := range sample {
				rep, err := ledger.Audit(fsys, dir, sub, cycle)
				if err != nil {
					return err
				}
				o.check(totalsOf(rep) == before[k],
					"epoch %d cycle %d: audit of %s changed across Compact: %+v then %+v",
					e, c, sub[:8], before[k], totalsOf(rep))
			}
		}
		ce := time.Now()
		if !measured {
			continue
		}
		l.auditMS = append(l.auditMS, auditMS...)
		l.compactMS = append(l.compactMS, compactMS...)
		l.appendS += ae.Sub(cs).Seconds()
		l.totalS += ce.Sub(cs).Seconds()
		if tr != nil {
			id := uint64(e*l.cycles + c)
			off := int64(l.base.Sub(tr.base))
			tr.add(id, "ledger.cycle", "", off+int64(cs.Sub(l.base)), off+int64(ce.Sub(l.base)))
			tr.add(id, "ledger.append_phase", "ledger.cycle", off+int64(cs.Sub(l.base)), off+int64(ae.Sub(l.base)))
			tr.add(id, "ledger.audit_phase", "ledger.cycle", off+int64(ae.Sub(l.base)), off+int64(ce.Sub(l.base)))
		}
	}
	if err := led.Close(); err != nil {
		return fmt.Errorf("close ledger: %w", err)
	}

	// The closed epoch replays to exactly what was appended.
	r0 := time.Now()
	count := 0
	err = ledger.Replay(fsys, dir, func(rec *ledger.Record) error {
		if rec.Kind == ledger.KindPoC {
			if measured && count%max(1, appended/proofSample) == 0 {
				l.proofs = append(l.proofs, append([]byte(nil), rec.Proof...))
			}
			count++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay ledger: %w", err)
	}
	if measured {
		l.replayRate = append(l.replayRate, float64(count)/time.Since(r0).Seconds())
	}
	o.check(count == appended, "epoch %d: ledger replays %d proofs, %d appended", e, count, appended)
	return nil
}

// auditTotals is what an audit reports for one (subscriber, cycle).
type auditTotals struct {
	pocs    int
	x       uint64
	volume  uint64
	records uint32
	settled bool
}

func totalsOf(rep *ledger.AuditReport) auditTotals {
	t := auditTotals{pocs: len(rep.PoCs), volume: rep.Volume(), records: rep.Records, settled: rep.Settled}
	for _, r := range rep.PoCs {
		t.x += r.X
	}
	return t
}

// negotiate settles one charging cycle between in-memory edge and
// operator Machines and returns the operator's stored proof.
func negotiate(keys *keySet, env *session.Env) (proof, error) {
	edgeCfg := &session.Config{Role: poc.RoleEdge, Plan: livePlan, Key: keys.edge,
		Strategy: core.OptimalStrategy{}, View: liveView}
	opCfg := &session.Config{Role: poc.RoleOperator, Plan: livePlan, Key: keys.op,
		Strategy: core.OptimalStrategy{}, View: liveView, KeepProof: true}
	var edge, op session.Machine
	edge.Init(edgeCfg, &keys.op.PublicKey)
	op.Init(opCfg, &keys.edge.PublicKey)

	var toOp, toEdge [][]byte
	queue := func(q *[][]byte) func([]byte) error {
		return func(msg []byte) error {
			*q = append(*q, append([]byte(nil), msg...))
			return nil
		}
	}
	if err := edge.Start(env, queue(&toOp)); err != nil {
		return proof{}, err
	}
	for steps := 0; !(edge.Done() && op.Done()); steps++ {
		if steps > 4*core.DefaultMaxRounds || len(toOp)+len(toEdge) == 0 {
			return proof{}, errors.New("negotiation stalled")
		}
		for len(toOp) > 0 {
			msg := toOp[0]
			toOp = toOp[1:]
			if _, err := op.Handle(msg, env, queue(&toEdge)); err != nil {
				return proof{}, err
			}
		}
		for len(toEdge) > 0 {
			msg := toEdge[0]
			toEdge = toEdge[1:]
			if _, err := edge.Handle(msg, env, queue(&toOp)); err != nil {
				return proof{}, err
			}
		}
	}
	if op.X() != settledX || op.Proof() == nil {
		return proof{}, fmt.Errorf("corpus negotiation settled X = %d (proof %d bytes), want %d", op.X(), len(op.Proof()), settledX)
	}
	return proof{bytes: op.Proof(), x: op.X(), rounds: uint32(op.Rounds())}, nil
}
