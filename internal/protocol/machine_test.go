package protocol

import (
	"errors"
	"testing"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

func machineConfigs(edgeStrat, opStrat core.Strategy, ev, ov core.View) (edge, op *Config) {
	edge = &Config{
		Role: poc.RoleEdge, Plan: plan, Key: edgeKeys.Private,
		Strategy: edgeStrat, View: ev,
	}
	op = &Config{
		Role: poc.RoleOperator, Plan: plan, Key: opKeys.Private,
		Strategy: opStrat, View: ov,
	}
	return edge, op
}

// pump runs two machines against each other in memory, the first
// initiating, until both settle or a step errors. It returns every
// message sent, in order.
func pump(t *testing.T, init, resp *Machine, envI, envR *Env) ([][]byte, error) {
	t.Helper()
	var sent, toResp, toInit [][]byte
	emit := func(queue *[][]byte) func([]byte) error {
		return func(msg []byte) error {
			msg = append([]byte(nil), msg...)
			sent = append(sent, msg)
			*queue = append(*queue, msg)
			return nil
		}
	}
	emitI, emitR := emit(&toResp), emit(&toInit)
	if err := init.Start(envI, emitI); err != nil {
		return sent, err
	}
	for steps := 0; len(toResp) > 0 || len(toInit) > 0; steps++ {
		if steps > 4*core.DefaultMaxRounds {
			t.Fatal("machines did not converge")
		}
		if len(toResp) > 0 {
			msg := toResp[0]
			toResp = toResp[1:]
			if _, err := resp.Handle(msg, envR, emitR); err != nil {
				return sent, err
			}
		}
		if len(toInit) > 0 {
			msg := toInit[0]
			toInit = toInit[1:]
			if _, err := init.Handle(msg, envI, emitI); err != nil {
				return sent, err
			}
		}
	}
	return sent, nil
}

func discard([]byte) error { return nil }

func TestMachineRejectsTamperedMessages(t *testing.T) {
	ec, oc := machineConfigs(core.OptimalStrategy{}, core.OptimalStrategy{},
		core.View{Sent: 1000, Received: 900}, core.View{Sent: 1000, Received: 900})
	var em, om Machine
	em.Init(ec, opKeys.Public)
	om.Init(oc, edgeKeys.Public)
	envE := &Env{RNG: sim.NewRNG(1), Nonce: sim.NewRNG(2)}
	envO := &Env{RNG: sim.NewRNG(3), Nonce: sim.NewRNG(4)}

	var opening []byte
	if err := em.Start(envE, func(msg []byte) error {
		opening = append([]byte(nil), msg...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A flipped signature bit must surface as a peer-validation error,
	// not an accepted claim.
	tampered := append([]byte(nil), opening...)
	tampered[len(tampered)-1] ^= 0xff
	if _, err := om.Handle(tampered, envO, discard); !errors.Is(err, ErrBadPeer) {
		t.Fatalf("tampered CDR: err = %v, want ErrBadPeer", err)
	}

	// Unknown message kinds and truncation are bad messages.
	var fresh Machine
	fresh.Init(oc, edgeKeys.Public)
	if _, err := fresh.Handle([]byte{42, 1, 2}, envO, discard); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown kind: err = %v, want ErrBadMessage", err)
	}
	if _, err := fresh.Handle(nil, envO, discard); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty message: err = %v, want ErrBadMessage", err)
	}
}

func TestMachineRejectsStalePoC(t *testing.T) {
	// Settle one negotiation, then replay its PoC into a second
	// exchange: the replay embeds a CDA the new session never sent.
	ec, oc := machineConfigs(core.OptimalStrategy{}, core.OptimalStrategy{},
		core.View{Sent: 1000, Received: 900}, core.View{Sent: 1000, Received: 900})
	envE := &Env{RNG: sim.NewRNG(1), Nonce: sim.NewRNG(2)}
	envO := &Env{RNG: sim.NewRNG(3), Nonce: sim.NewRNG(4)}

	var em1, om1 Machine
	em1.Init(ec, opKeys.Public)
	om1.Init(oc, edgeKeys.Public)
	sent, err := pump(t, &em1, &om1, envE, envO)
	if err != nil {
		t.Fatal(err)
	}
	if !em1.Done() || !om1.Done() || em1.X() != om1.X() || em1.Finisher() == om1.Finisher() {
		t.Fatalf("first exchange: done %v/%v, X %d/%d, finisher %v/%v; want both settled on one X with one finisher",
			em1.Done(), om1.Done(), em1.X(), om1.X(), em1.Finisher(), om1.Finisher())
	}
	proof := sent[len(sent)-1]
	if proof[0] != 3 {
		t.Fatalf("last message has kind %d, want a PoC", proof[0])
	}

	// Second exchange, same parties: advance the operator to the
	// point where it has sent a CDA, then replay the old proof.
	var em2, om2 Machine
	em2.Init(ec, opKeys.Public)
	om2.Init(oc, edgeKeys.Public)
	var opening2 []byte
	if err := em2.Start(envE, func(msg []byte) error {
		opening2 = append([]byte(nil), msg...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := om2.Handle(opening2, envO, discard); err != nil {
		t.Fatal(err)
	}
	if _, err := om2.Handle(proof, envO, discard); !errors.Is(err, ErrStaleProof) {
		t.Fatalf("replayed PoC: err = %v, want ErrStaleProof", err)
	}
}

// machineNegotiationAllocs is the allocation count of one optimal
// edge/operator machine negotiation (CDR, CDA, PoC; RSA-1024 keys
// generated beforehand), measured when the machine lived in
// internal/session, before Party.Run was rebuilt on it.
const machineNegotiationAllocs = 149

// TestZeroAllocStageMachineNegotiation guards the allocation cost of
// one full negotiation, which the session engine pays per settlement.
// The name puts it in verify.sh's non-race allocs stage.
func TestZeroAllocStageMachineNegotiation(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is perturbed by the race detector")
	}
	ec, oc := machineConfigs(core.OptimalStrategy{}, core.OptimalStrategy{},
		core.View{Sent: 1000, Received: 900}, core.View{Sent: 1000, Received: 900})
	var em, om Machine
	envE := &Env{RNG: sim.NewRNG(1), Nonce: sim.NewRNG(2)}
	envO := &Env{RNG: sim.NewRNG(3), Nonce: sim.NewRNG(4)}
	// One reused mailbox per direction: the exchange alternates, one
	// message per turn, so the harness itself allocates nothing.
	var toOp, toEdge []byte
	emitE := func(msg []byte) error { toOp = append(toOp[:0], msg...); return nil }
	emitO := func(msg []byte) error { toEdge = append(toEdge[:0], msg...); return nil }
	negotiate := func() {
		em.Init(ec, opKeys.Public)
		om.Init(oc, edgeKeys.Public)
		if err := em.Start(envE, emitE); err != nil {
			t.Fatal(err)
		}
		for turn := 0; !em.Done() || !om.Done(); turn++ {
			var err error
			if turn%2 == 0 {
				_, err = om.Handle(toOp, envO, emitO)
			} else {
				_, err = em.Handle(toEdge, envE, emitE)
			}
			if err != nil {
				t.Fatal(err)
			}
			if turn > 4 {
				t.Fatal("optimal negotiation did not settle in one round")
			}
		}
	}
	negotiate() // grow the mailboxes
	allocs := testing.AllocsPerRun(20, negotiate)
	t.Logf("one machine negotiation: %v allocs (bound %d)", allocs, machineNegotiationAllocs)
	if allocs > machineNegotiationAllocs {
		t.Fatalf("one machine negotiation allocates %v; the bound is %d", allocs, machineNegotiationAllocs)
	}
}
