package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"tlc/internal/core"
	"tlc/internal/keyio"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// wireLog records every byte written on the in-memory connections of
// one run, as runs of consecutive writes by the same endpoint. The
// Algorithm 1 exchange is strictly alternating, so the cross-direction
// order is deterministic.
type wireLog struct {
	mu    sync.Mutex
	pipes int
	runs  []wireRun
}

type wireRun struct {
	end  int // 2*pipe + side
	data []byte
}

func (l *wireLog) record(end int, b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.runs); n > 0 && l.runs[n-1].end == end {
		l.runs[n-1].data = append(l.runs[n-1].data, b...)
		return
	}
	l.runs = append(l.runs, wireRun{end: end, data: append([]byte(nil), b...)})
}

// pipe is a newPipe replacement whose two ends tap their writes.
func (l *wireLog) pipe() (net.Conn, net.Conn) {
	a, b := net.Pipe()
	l.mu.Lock()
	p := l.pipes
	l.pipes++
	l.mu.Unlock()
	return &tapConn{Conn: a, log: l, end: 2 * p}, &tapConn{Conn: b, log: l, end: 2*p + 1}
}

// digest is SHA-256 over every frame in wire order, each tagged with
// the endpoint that sent it. It splits the byte runs into frames, so
// it does not depend on how a writer chunks its Write calls.
func (l *wireLog) digest(t *testing.T) (string, int) {
	t.Helper()
	h := sha256.New()
	frames := 0
	for _, run := range l.runs {
		rest := run.data
		for len(rest) > 0 {
			if len(rest) < 4 {
				t.Fatalf("endpoint %d: %d stray bytes", run.end, len(rest))
			}
			n := binary.BigEndian.Uint32(rest)
			if uint32(len(rest)-4) < n {
				t.Fatalf("endpoint %d: frame of %d with %d bytes left", run.end, n, len(rest)-4)
			}
			var tag [5]byte
			tag[0] = byte(run.end)
			binary.BigEndian.PutUint32(tag[1:], n)
			_, _ = h.Write(tag[:]) // hash.Hash writes never fail
			_, _ = h.Write(rest[4 : 4+n])
			rest = rest[4+n:]
			frames++
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), frames
}

type tapConn struct {
	net.Conn
	log *wireLog
	end int
}

func (c *tapConn) Write(b []byte) (int, error) {
	// Record before writing: the peer cannot answer until this write
	// is consumed, so its reply always lands after it in the log.
	c.log.record(c.end, b)
	return c.Conn.Write(b)
}

// errorClass names the typed protocol error err wraps.
func errorClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"no-convergence", ErrNoConvergence},
		{"stale-proof", ErrStaleProof},
		{"bad-peer", ErrBadPeer},
		{"bad-message", ErrBadMessage},
		{"truncated", ErrFrameTruncated},
		{"bad-chain", ErrBadChain},
		{"eof", io.EOF},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other: " + err.Error()
}

// goldenKeys loads the fixed key pairs of testdata/keys. The shared
// test keys are generated per process (rsa.GenerateKey does not
// promise to be deterministic), so signed transcripts pinned across
// runs need keys from disk.
func goldenKeys(t *testing.T, names ...string) []*poc.KeyPair {
	t.Helper()
	var out []*poc.KeyPair
	for _, name := range names {
		priv, err := keyio.LoadPrivateKey("testdata/keys/" + name + ".key")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &poc.KeyPair{Private: priv, Public: &priv.PublicKey})
	}
	return out
}

// TestNegotiationTranscriptGolden pins the exact wire transcript of
// RunPair and RunRoaming: every frame in both directions, in order,
// plus the settled X, the rounds each side counted and the error
// class. Any change to the Algorithm 1 driver, the RNG draw order or
// the message codecs shows up here as a digest change.
func TestNegotiationTranscriptGolden(t *testing.T) {
	keys := goldenKeys(t, "edge", "operator", "vendor", "visited", "home")
	view := core.View{Sent: 1000, Received: 900}
	pair := func(edgeStrat, opStrat core.Strategy, ev, ov core.View, seed int64, maxRounds int) func(*testing.T) string {
		return func(t *testing.T) string {
			edge := &Party{
				Role: poc.RoleEdge, Plan: plan, Keys: keys[0], PeerKey: keys[1].Public,
				Strategy: edgeStrat, View: ev, RNG: sim.NewRNG(seed), MaxRounds: maxRounds,
			}
			op := &Party{
				Role: poc.RoleOperator, Plan: plan, Keys: keys[1], PeerKey: keys[0].Public,
				Strategy: opStrat, View: ov, RNG: sim.NewRNG(seed + 1), MaxRounds: maxRounds,
			}
			ro, re, err := RunPair(op, edge)
			if err != nil {
				return "err=" + errorClass(err)
			}
			if ro.X != re.X {
				t.Fatalf("split settlement: operator X=%d edge X=%d", ro.X, re.X)
			}
			return fmt.Sprintf("x=%d rounds=%d/%d err=ok", ro.X, ro.Rounds, re.Rounds)
		}
	}
	cases := []struct {
		name   string
		run    func(*testing.T) string
		golden string
	}{
		{"optimal", pair(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 1, 0),
			"e274e98f399695cc9a1329580b7e45a79bf03427459e33d9bbcdbd0147f00085 frames=3 x=950 rounds=1/1 err=ok"},
		{"honest", pair(core.HonestStrategy{}, core.HonestStrategy{}, core.View{Sent: 2000, Received: 1500}, core.View{Sent: 2000, Received: 1500}, 2, 0),
			"f2bbe7d2d1892731c25a4361f17e3dcec55c8d41064cd3d355ff3a161c8e8cb4 frames=3 x=1750 rounds=1/1 err=ok"},
		{"asym-views", pair(core.OptimalStrategy{}, core.OptimalStrategy{}, core.View{Sent: 1200, Received: 1000}, core.View{Sent: 1100, Received: 1050}, 3, 0),
			"76897f4713edcb4d07ac4618e41cfef975cb77aa2435efbbf9161884ede608ea frames=128 err=no-convergence"},
		{"random-selfish-100", pair(core.RandomSelfishStrategy{}, core.RandomSelfishStrategy{}, core.View{Sent: 10000, Received: 9300}, core.View{Sent: 10000, Received: 9300}, 100, 256),
			"45c155b8795681b359edb2b5135f8e490988fafbad11baec589b4a02529328d1 frames=13 x=9494 rounds=6/6 err=ok"},
		{"random-selfish-101", pair(core.RandomSelfishStrategy{}, core.RandomSelfishStrategy{}, core.View{Sent: 10000, Received: 9300}, core.View{Sent: 10000, Received: 9300}, 101, 256),
			"dc7b28cae8972ff0fa318b5bab93b3eb33c59f87f859eabec4bad5e7a1ab9cb5 frames=16 x=10014 rounds=8/7 err=ok"},
		{"random-selfish-102", pair(core.RandomSelfishStrategy{}, core.RandomSelfishStrategy{}, core.View{Sent: 10000, Received: 9300}, core.View{Sent: 10000, Received: 9300}, 102, 256),
			"ff2e190c6385246d05f0c1aa9b9bb7188f65fe84ba8a03dc4b5e59a9d67eba8f frames=4 x=9694 rounds=2/1 err=ok"},
		{"always-reject", pair(core.OptimalStrategy{}, core.AlwaysRejectStrategy{}, view, view, 3, 8),
			"32328f106d9a0637e9a8fdeda35a9bc402ceab7b16a817487cae2ccc6ac21879 frames=16 err=no-convergence"},
		{"roaming-honest", func(*testing.T) string {
			cfg := roamConfig(1)
			cfg.VendorKeys, cfg.VisitedKeys, cfg.HomeKeys = keys[2], keys[3], keys[4]
			res, err := RunRoaming(cfg)
			if err != nil {
				return "err=" + errorClass(err)
			}
			return fmt.Sprintf("x1=%d x2=%d rounds=%d/%d err=ok", res.X1, res.X2, res.RoundsA, res.RoundsB)
		}, "db4dbecc748c47cbc2df1aa594f0bf0424009f0c5e3fb81a8dd7e23fb4b322e0 frames=7 x1=1000 x2=950 rounds=1/1 err=ok"},
	}
	defer func(orig func() (net.Conn, net.Conn)) { newPipe = orig }(newPipe)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &wireLog{}
			newPipe = log.pipe
			outcome := tc.run(t)
			sum, frames := log.digest(t)
			got := fmt.Sprintf("%s frames=%d %s", sum, frames, outcome)
			if got != tc.golden {
				t.Errorf("transcript changed:\n got  %s\n want %s", got, tc.golden)
			}
		})
	}
}
