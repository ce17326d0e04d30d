package protocol

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameReaderParity runs ReadFrame and FrameReader over the same
// byte streams against each stream's expected frames and final error
// class: a clean EOF only on a frame boundary, a truncation for a
// stream that dies mid-frame, and a hard (untyped) error for a header
// past MaxFrame.
func TestFrameReaderParity(t *testing.T) {
	frame := func(body []byte) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, body); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	big := bytes.Repeat([]byte{7}, 512)
	cases := []struct {
		name   string
		stream []byte
		frames [][]byte
		class  string // "eof", "truncated" or "oversize"
	}{
		{"clean EOF", []byte{}, nil, "eof"},
		{"partial header", []byte{0, 0}, nil, "truncated"},
		{"empty frame", []byte{0, 0, 0, 0}, [][]byte{{}}, "eof"},
		{"small frame", frame([]byte("abc")), [][]byte{[]byte("abc")}, "eof"},
		{"truncated body", []byte{0, 0, 0, 10, 1, 2}, nil, "truncated"},
		{"oversize header", []byte{0xff, 0xff, 0xff, 0xff}, nil, "oversize"},
		{"just past MaxFrame", []byte{0, 1, 0, 1}, nil, "oversize"},
		{"back-to-back", append(frame([]byte("first")), frame(big)...), [][]byte{[]byte("first"), big}, "eof"},
	}
	classOf := func(err error) string {
		switch {
		case errors.Is(err, io.EOF):
			return "eof"
		case errors.Is(err, ErrFrameTruncated):
			return "truncated"
		default:
			return "oversize"
		}
	}
	for _, tc := range cases {
		r := bytes.NewReader(tc.stream)
		fr := NewFrameReader(bytes.NewReader(tc.stream))
		readers := map[string]func() ([]byte, error){
			"ReadFrame":   func() ([]byte, error) { return ReadFrame(r) },
			"FrameReader": fr.ReadFrame,
		}
		for name, read := range readers {
			for i := 0; ; i++ {
				got, err := read()
				if err != nil {
					if i != len(tc.frames) {
						t.Fatalf("%s/%s: error %v after %d frames, want %d", tc.name, name, err, i, len(tc.frames))
					}
					if c := classOf(err); c != tc.class {
						t.Fatalf("%s/%s: error %v is %s, want %s", tc.name, name, err, c, tc.class)
					}
					break
				}
				if i >= len(tc.frames) || !bytes.Equal(got, tc.frames[i]) {
					t.Fatalf("%s/%s: unexpected frame %d: %x", tc.name, name, i, got)
				}
			}
		}
	}
}

// TestFrameReaderReuse: the returned slice aliases the internal buffer,
// so the next call overwrites it — the documented contract callers copy
// around.
func TestFrameReaderReuse(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrame(&b, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&b)
	first, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "aaaa" {
		t.Fatalf("first frame %q", first)
	}
	if _, err := fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if string(first) == "aaaa" {
		t.Fatal("second ReadFrame left the first slice untouched; buffer is not being reused")
	}
}

// TestFrameReaderZeroAlloc guards the pooled read path: after the
// buffer has grown once, reading frames allocates nothing. Runs in the
// non-race allocs verify stage (AllocsPerRun is perturbed under -race).
func TestFrameReaderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is perturbed by the race detector")
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, bytes.Repeat([]byte{3}, 1024)); err != nil {
		t.Fatal(err)
	}
	stream := wire.Bytes()
	r := bytes.NewReader(stream)
	fr := NewFrameReader(r)
	if _, err := fr.ReadFrame(); err != nil { // grow once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(stream)
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameReader.ReadFrame allocates %v per frame; want 0", allocs)
	}
}
