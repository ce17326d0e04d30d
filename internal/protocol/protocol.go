// Package protocol runs TLC's negotiation (Figure 7) as an
// application-layer protocol over any stream transport: the signed
// CDR/CDA/PoC messages of internal/poc exchanged with length-prefixed
// framing, driving the Algorithm 1 game of internal/core. It works
// identically over net.Pipe (tests, simulation) and TCP (cmd/tlcd).
package protocol

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// MaxFrame bounds a message frame; PoCs are well under 4 KiB even
// with RSA-3072.
const MaxFrame = 64 * 1024

// WriteFrame writes one length-prefixed message.
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("protocol: frame of %d bytes exceeds max %d", len(data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// Errors surfaced by a negotiation run.
var (
	ErrNoConvergence = errors.New("protocol: negotiation exhausted max rounds")
	ErrBadMessage    = errors.New("protocol: malformed or unexpected message")
	ErrBadPeer       = errors.New("protocol: peer message failed validation")
	// ErrFrameTruncated marks a stream that died mid-frame; the
	// connection is unusable (the framing is desynchronised) and Run
	// closes it.
	ErrFrameTruncated = errors.New("protocol: frame truncated")
	// ErrStaleProof marks a syntactically valid, correctly signed PoC
	// that does not embed the CDA this party sent in this exchange — a
	// replayed proof from an earlier negotiation.
	ErrStaleProof = errors.New("protocol: stale proof")
)

// closeConn tears the transport down when the framing layer is
// desynchronised; a half-read stream can never resynchronise, so
// leaving it open would wedge the peer.
func closeConn(conn io.ReadWriter) {
	if c, ok := conn.(io.Closer); ok {
		_ = c.Close() // already failing; the close result adds nothing
	}
}

// Party is one side of the negotiation.
type Party struct {
	Role    poc.Role
	Plan    poc.Plan
	Keys    *poc.KeyPair
	PeerKey *rsa.PublicKey

	// Strategy and View drive the Algorithm 1 game exactly as in
	// internal/core.
	Strategy core.Strategy
	View     core.View

	// RNG drives randomized strategies and nonce generation in
	// deterministic runs; nil uses a zero-seeded stream (nonces are
	// then deterministic — fine for simulation, not for production;
	// pass a crypto/rand-backed reader via NonceSource for that).
	RNG *sim.RNG
	// NonceSource overrides the nonce randomness (defaults to RNG).
	NonceSource io.Reader

	// MaxRounds caps claims sent by this party.
	MaxRounds int
	// Timeout applies per message exchange when the transport is a
	// net.Conn.
	Timeout time.Duration
}

// Result is the settled negotiation.
type Result struct {
	PoC    *poc.PoC
	X      uint64
	Rounds int // claims this party sent or answered
}

func (p *Party) rng() *sim.RNG {
	if p.RNG == nil {
		p.RNG = sim.NewRNG(0)
	}
	return p.RNG
}

func (p *Party) nonceSource() io.Reader {
	if p.NonceSource != nil {
		return p.NonceSource
	}
	return p.rng()
}

func (p *Party) deadline(conn io.ReadWriter) {
	if p.Timeout <= 0 {
		return
	}
	if c, ok := conn.(net.Conn); ok {
		//tlcvet:allow simtime — real network I/O deadline on a live conn, not simulated control flow
		_ = c.SetDeadline(time.Now().Add(p.Timeout))
	}
}

// Run executes the negotiation over the transport. The initiator
// sends the first CDR; the responder waits for it. On success both
// sides hold the same doubly signed PoC.
func (p *Party) Run(conn io.ReadWriter, initiate bool) (*Result, error) {
	Metrics.NegotiationsStarted.Inc()
	res, err := p.run(conn, initiate)
	if err != nil {
		Metrics.Fail(err)
		return nil, err
	}
	Metrics.Settle(res.Rounds)
	return res, nil
}

// run drives one Machine with blocking reads and writes on conn.
func (p *Party) run(conn io.ReadWriter, initiate bool) (*Result, error) {
	if p.Strategy == nil || p.Keys == nil || p.PeerKey == nil {
		return nil, errors.New("protocol: Strategy, Keys and PeerKey are required")
	}
	cfg := Config{
		Role: p.Role, Plan: p.Plan, Key: p.Keys.Private,
		Strategy: p.Strategy, View: p.View, MaxRounds: p.MaxRounds,
		KeepProof: true,
	}
	env := Env{RNG: p.rng(), Nonce: p.nonceSource()}
	var m Machine
	m.Init(&cfg, p.PeerKey)
	emit := func(data []byte) error {
		p.deadline(conn)
		return WriteFrame(conn, data)
	}
	if initiate {
		if err := m.Start(&env, emit); err != nil {
			return nil, err
		}
	}
	for !m.Done() {
		p.deadline(conn)
		frame, err := ReadFrame(conn)
		if err == nil {
			_, err = m.Handle(frame, &env, emit)
		}
		if err != nil {
			if errors.Is(err, ErrFrameTruncated) || errors.Is(err, ErrStaleProof) {
				closeConn(conn)
			}
			return nil, err
		}
	}
	var proof poc.PoC
	if err := proof.UnmarshalBinary(m.Proof()); err != nil {
		return nil, err
	}
	return &Result{PoC: &proof, X: m.X(), Rounds: m.Rounds()}, nil
}

// newPipe makes the in-memory connections RunPair and RunRoaming
// negotiate over; the transcript tests wrap it to record the wire.
var newPipe = net.Pipe

// RunPair drives both parties over an in-memory connection and
// returns their results; it is the simulator's convenience entry.
func RunPair(initiator, responder *Party) (*Result, *Result, error) {
	ci, cr := newPipe()

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := responder.Run(cr, false)
		// Closing unblocks the peer if we failed mid-exchange.
		cr.Close() //tlcvet:allow errdiscard — net.Pipe close never fails; the call only unblocks the peer
		ch <- outcome{res, err}
	}()
	ri, err := initiator.Run(ci, true)
	ci.Close() //tlcvet:allow errdiscard — net.Pipe close never fails; the call only unblocks the peer
	ro := <-ch
	if err != nil {
		return nil, nil, fmt.Errorf("initiator: %w", err)
	}
	if ro.err != nil {
		return nil, nil, fmt.Errorf("responder: %w", ro.err)
	}
	return ri, ro.res, nil
}
