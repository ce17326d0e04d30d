package protocol

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"net"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// Three-party roaming settlement over the wire. The edge vendor and
// the visited operator first settle their segment with the ordinary
// bilateral negotiation; the visited operator countersigns that proof,
// opens a second negotiation with the home operator claiming exactly
// the settled volume, and after that segment settles hands the full
// chain over on the same connection. The home operator verifies the
// chain end to end before accepting it — a visited operator that
// inflates, replays or tampers anything gets a typed rejection.

// ErrBadChain marks a relayed settlement chain that failed end-to-end
// verification at the home operator.
var ErrBadChain = errors.New("protocol: roaming chain failed verification")

// RoamingConfig wires the three parties of one roaming settlement.
type RoamingConfig struct {
	Plan poc.Plan

	VendorKeys  *poc.KeyPair
	VisitedKeys *poc.KeyPair
	HomeKeys    *poc.KeyPair

	VendorStrategy  core.Strategy
	VisitedStrategy core.Strategy
	HomeStrategy    core.Strategy

	// VendorView is the vendor's view of the downstream segment and
	// VisitedViewA the visited operator's; they drive the Algorithm 1
	// game exactly as in a bilateral run.
	VendorView   core.View
	VisitedViewA core.View
	// VisitedViewB is the visited operator's view of the upstream
	// segment. Zero means derive it from the settled downstream volume
	// — the honest relay claims upstream exactly what it countersigned.
	VisitedViewB core.View
	// HomeView is the home operator's view of the upstream segment:
	// Sent is its gateway estimate of what the visited operator pushed,
	// Received its record of what reached the subscriber.
	HomeView core.View

	RNG       *sim.RNG
	MaxRounds int

	// Verifier, when set, is the home operator's persistent chain
	// verifier (replay defence across cycles). Nil verifies each run
	// against a fresh replay set.
	Verifier *poc.ChainVerifier

	// Forge, when set, lets a byzantine visited operator rewrite the
	// chain between assembly and handoff. The home operator's verdict
	// on the forged chain is the experiment's measurement.
	Forge func(*poc.Chain) *poc.Chain
}

// RoamingResult is one settled (or rejected) roaming run.
type RoamingResult struct {
	// Chain is the settlement chain as the home operator accepted it;
	// nil when the handoff was rejected.
	Chain *poc.Chain
	// X1 is the vendor<->visited settled volume, X2 the final
	// visited<->home one (what the subscriber is billed).
	X1, X2 uint64
	// RoundsA and RoundsB count the claims of the two negotiations.
	RoundsA, RoundsB int
}

func (cfg *RoamingConfig) rng() *sim.RNG {
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(0)
	}
	return cfg.RNG
}

// RunRoaming drives a full three-party settlement over in-memory
// connections: downstream negotiation, countersignature, upstream
// negotiation, chain handoff, home-side verification.
func RunRoaming(cfg RoamingConfig) (*RoamingResult, error) {
	rng := cfg.rng()

	vendor := &Party{
		Role: poc.RoleEdge, Plan: cfg.Plan,
		Keys: cfg.VendorKeys, PeerKey: cfg.VisitedKeys.Public,
		Strategy: cfg.VendorStrategy, View: cfg.VendorView,
		RNG: rng.Fork("vendor"), MaxRounds: cfg.MaxRounds,
	}
	visitedDown := &Party{
		Role: poc.RoleOperator, Plan: cfg.Plan,
		Keys: cfg.VisitedKeys, PeerKey: cfg.VendorKeys.Public,
		Strategy: cfg.VisitedStrategy, View: cfg.VisitedViewA,
		RNG: rng.Fork("visited-down"), MaxRounds: cfg.MaxRounds,
	}
	_, resA, err := RunPair(vendor, visitedDown)
	if err != nil {
		return nil, fmt.Errorf("roaming downstream: %w", err)
	}

	cs, err := poc.Countersign(resA.PoC, rng.Fork("countersign"), cfg.VisitedKeys.Private)
	if err != nil {
		return nil, err
	}

	viewB := cfg.VisitedViewB
	if viewB == (core.View{}) {
		x1 := float64(cs.Relayed)
		viewB = core.View{Sent: x1, Received: x1}
	}
	visitedUp := &Party{
		Role: poc.RoleEdge, Plan: cfg.Plan,
		Keys: cfg.VisitedKeys, PeerKey: cfg.HomeKeys.Public,
		Strategy: cfg.VisitedStrategy, View: viewB,
		RNG: rng.Fork("visited-up"), MaxRounds: cfg.MaxRounds,
	}
	home := &Party{
		Role: poc.RoleOperator, Plan: cfg.Plan,
		Keys: cfg.HomeKeys, PeerKey: cfg.VisitedKeys.Public,
		Strategy: cfg.HomeStrategy, View: cfg.HomeView,
		RNG: rng.Fork("home"), MaxRounds: cfg.MaxRounds,
	}

	verifier := cfg.Verifier
	if verifier == nil {
		verifier = poc.NewChainVerifier(cfg.VendorKeys.Public,
			[]*rsa.PublicKey{cfg.VisitedKeys.Public}, cfg.HomeKeys.Public)
	}

	// Upstream negotiation and chain handoff share one connection: the
	// chain frame (kind 5, the chain codec's own tag) follows the
	// settlement on the same stream.
	ci, cr := newPipe()
	type homeOut struct {
		res   *Result
		chain *poc.Chain
		err   error
	}
	ch := make(chan homeOut, 1)
	go func() {
		out := homeOut{}
		out.res, out.err = home.Run(cr, false)
		if out.err == nil {
			out.chain, out.err = readChainFrame(cr, verifier, cfg.Plan)
		}
		cr.Close() //tlcvet:allow errdiscard — net.Pipe close never fails; the call only unblocks the peer
		ch <- out
	}()

	resB, errB := visitedUp.Run(ci, true)
	if errB == nil {
		chain := &poc.Chain{
			Links: []poc.ChainLink{{Proof: *resA.PoC, Endorse: *cs}},
			Final: *resB.PoC,
		}
		if cfg.Forge != nil {
			chain = cfg.Forge(chain)
		}
		errB = writeChainFrame(ci, chain)
	}
	ci.Close() //tlcvet:allow errdiscard — net.Pipe close never fails; the call only unblocks the peer
	out := <-ch
	if errB != nil {
		return nil, fmt.Errorf("roaming upstream (visited): %w", errB)
	}
	if out.err != nil {
		return nil, fmt.Errorf("roaming upstream (home): %w", out.err)
	}

	return &RoamingResult{
		Chain:   out.chain,
		X1:      resA.X,
		X2:      out.res.X,
		RoundsA: resA.Rounds,
		RoundsB: out.res.Rounds,
	}, nil
}

// writeChainFrame sends the assembled chain; its first byte is the
// chain codec's kind tag, distinct from the CDR/CDA/PoC kinds.
func writeChainFrame(conn net.Conn, chain *poc.Chain) error {
	data, err := chain.MarshalBinary()
	if err != nil {
		return err
	}
	return WriteFrame(conn, data)
}

// readChainFrame receives and fully verifies the settlement chain.
func readChainFrame(conn net.Conn, verifier *poc.ChainVerifier, plan poc.Plan) (*poc.Chain, error) {
	frame, err := ReadFrame(conn)
	if err != nil {
		if errors.Is(err, ErrFrameTruncated) {
			closeConn(conn)
		}
		return nil, err
	}
	var chain poc.Chain
	if err := chain.UnmarshalBinary(frame); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if err := verifier.Verify(&chain, plan); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChain, err)
	}
	return &chain, nil
}
