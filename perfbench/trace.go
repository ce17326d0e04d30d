package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tlc/internal/ledger"
)

// span is one timed interval at a layer boundary. Spans of one
// session, ledger record or city cycle share ID; Parent names the
// enclosing span of the same ID ("" for a root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept, so a long traced run cannot exhaust memory.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends.
// Timestamps are nanoseconds from the tracer's creation.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return since(t.base) }

func (t *tracer) add(id uint64, name, parent string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start, End: end})
}

// dump writes the spans as JSON lines, then one summary line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the write error is the one to report
			return err
		}
	}
	if err := enc.Encode(map[string]int{"spans": len(t.spans), "dropped": t.dropped}); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// countingConn counts the bytes crossing a net.Conn.
type countingConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// timedFS wraps a ledger.FS so every File.Sync is timed: the fsync
// latency the ledger pays, measured from outside the ledger.
type timedFS struct {
	ledger.FS
	tr    *tracer
	mu    sync.Mutex
	syncs []float64 // ms
}

func (fs *timedFS) Create(name string) (ledger.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

func (fs *timedFS) syncMS() []float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]float64(nil), fs.syncs...)
}

type timedFile struct {
	ledger.File
	fs *timedFS
}

func (f *timedFile) Sync() error {
	t0 := f.fs.tr.now()
	err := f.File.Sync()
	t1 := f.fs.tr.now()
	f.fs.mu.Lock()
	n := uint64(len(f.fs.syncs))
	f.fs.syncs = append(f.fs.syncs, float64(t1-t0)/1e6)
	f.fs.mu.Unlock()
	f.fs.tr.add(n, "ledger.fsync", "", t0, t1)
	return err
}
