package session

import (
	"sync"
	"testing"
)

// Regression tests for the conn-id-reuse alias: a session admitted
// under (conn, sid) by a connection that has since died must never be
// fed frames dispatched by a *newer* connection carrying the same id.
// Engine conn ids are a monotonic counter today, so the alias needs a
// recycled id to occur — these tests construct that state directly and
// pin both defense layers: the dispatch alias guard and the
// table-wide teardown sweep.

// staleConn builds a muxConn the way ServeConn does, minus the
// transport: dispatch and eviction only touch id/peerKey/out/sessions.
func staleConn(id uint64) *muxConn {
	return &muxConn{
		id:       id,
		peerKey:  &edgeKeys.Private.PublicKey,
		out:      newOutQueue(),
		sessions: make(map[uint64]*session),
	}
}

func residentSession(e *Engine, key connSid) *session {
	sh := e.table.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[key]
}

// TestDispatchEvictsStaleConnIDReuse: the first frame from a
// reconnected conn whose id aliases a dead conn's resident session
// must evict the stale session and open a fresh one — not route the
// new client's traffic into the dead conn's machine.
func TestDispatchEvictsStaleConnIDReuse(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): frames park in shard queues — this test is about
	// table identity, not crypto.
	c1, c2 := staleConn(42), staleConn(42)
	payload := []byte{0x01} // never reaches a worker

	eng.dispatch(c1, 7, payload)
	key := connSid{conn: 42, sid: 7}
	s1 := residentSession(eng, key)
	if s1 == nil || s1.conn != c1 {
		t.Fatalf("session not admitted for the first conn: %+v", s1)
	}

	// Reconnect reusing the id while s1 is still resident.
	eng.dispatch(c2, 7, payload)
	s2 := residentSession(eng, key)
	if s2 == nil {
		t.Fatal("no session resident after the reconnect dispatch")
	}
	if s2 == s1 {
		t.Fatal("reconnect aliased the dead conn's session: new conn's frames would feed the old machine")
	}
	if s2.conn != c2 {
		t.Fatal("resident session owned by a conn other than the dispatcher")
	}
	if got := s1.state.Load(); got != stateFailed {
		t.Fatalf("stale session state = %d, want stateFailed", got)
	}
}

// TestEvictConnSweepsTable: ServeConn teardown evicts by scanning the
// table for the conn id, so sessions the reader-local index never saw
// (admitted by another muxConn object under the same id) go too.
func TestEvictConnSweepsTable(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	doomed, twin, bystander := staleConn(9), staleConn(9), staleConn(10)
	payload := []byte{0x01}
	for sid := uint64(1); sid <= 16; sid++ {
		eng.dispatch(doomed, sid, payload)
	}
	// twin shares the id but is a different muxConn, so its session
	// (a fresh sid: no alias to evict) is invisible to doomed's
	// reader-local index — only the table sweep can find it.
	eng.dispatch(twin, 17, payload)
	eng.dispatch(bystander, 1, payload)

	eng.evictConn(9, nil)

	for _, sh := range eng.table.shards {
		sh.mu.Lock()
		for k := range sh.sessions {
			if k.conn == 9 {
				sh.mu.Unlock()
				t.Fatalf("session %+v survived evictConn(9)", k)
			}
		}
		sh.mu.Unlock()
	}
	if s := residentSession(eng, connSid{conn: 10, sid: 1}); s == nil || s.conn != bystander {
		t.Fatal("evictConn(9) disturbed the bystander conn's session")
	}
	if got := eng.active.Load(); got != 1 {
		t.Fatalf("active = %d after sweep, want 1 (the bystander)", got)
	}
}

// TestReconnectReuseConcurrent drives the alias guard from two
// "reader" goroutines sharing a conn id while a third tears the id
// down, under the race detector: the invariant is that the table never
// holds a session whose conn field disagrees with its key's owner at
// rest, and nothing deadlocks.
func TestReconnectReuseConcurrent(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	old, reborn := staleConn(77), staleConn(77)
	payload := []byte{0x01}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for sid := uint64(1); sid <= 64; sid++ {
			eng.dispatch(old, sid, payload)
		}
	}()
	go func() {
		defer wg.Done()
		for sid := uint64(1); sid <= 64; sid++ {
			eng.dispatch(reborn, sid, payload)
		}
	}()
	go func() {
		defer wg.Done()
		eng.evictConn(77, nil)
	}()
	wg.Wait()
	eng.evictConn(77, nil)
	for _, sh := range eng.table.shards {
		sh.mu.Lock()
		for k := range sh.sessions {
			if k.conn == 77 {
				sh.mu.Unlock()
				t.Fatalf("session %+v survived the final sweep", k)
			}
		}
		sh.mu.Unlock()
	}
}
