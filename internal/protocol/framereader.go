package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ReadFrame reads one length-prefixed message into a fresh slice the
// caller may keep. A stream that ends mid-frame — partway through the
// header or the announced body — is a truncation, not a clean EOF, and
// returns ErrFrameTruncated so callers can fail closed (close the
// connection) instead of leaving the peer mid-exchange on a
// half-consumed stream. A header announcing more than MaxFrame bytes
// is a hard error.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	return readFrame(r, &hdr, nil)
}

// FrameReader reads frames like ReadFrame but reuses one internal body
// buffer across calls, so a steady stream of frames costs zero
// allocations after the buffer has grown to the largest frame seen.
// It is the reader for long-lived connections: cmd/tlcd's session
// engine decodes hundreds of thousands of frames per second, where a
// per-frame allocation would dominate the allocation profile.
//
// The returned slice aliases the internal buffer and is only valid
// until the next ReadFrame call; callers that queue frames must copy.
type FrameReader struct {
	r   io.Reader
	hdr [4]byte // reused header scratch; a local would escape through io.ReadFull
	buf []byte
}

// NewFrameReader wraps r. The reader owns no goroutines and holds no
// state besides the reusable buffer, so it is safe to abandon.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadFrame reads one frame with ReadFrame's semantics into the
// reused buffer.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	return readFrame(fr.r, &fr.hdr, &fr.buf)
}

// readFrame is the one frame-reading body. With buf nil the frame gets
// a fresh allocation; otherwise it is read into *buf, which grows to
// fit.
func readFrame(r io.Reader, hdr *[4]byte, buf *[]byte) ([]byte, error) {
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n > 0 {
			return nil, fmt.Errorf("%w: %d of 4 header bytes: %v", ErrFrameTruncated, n, err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("protocol: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	var data []byte
	if buf == nil {
		data = make([]byte, n)
	} else {
		if uint32(cap(*buf)) < n {
			*buf = make([]byte, n)
		}
		data = (*buf)[:n]
	}
	if m, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("%w: %d of %d body bytes: %v", ErrFrameTruncated, m, n, err)
	}
	return data, nil
}
