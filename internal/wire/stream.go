package wire

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync"
)

// defaultBufCap sizes fresh pooled buffers: comfortably above the largest
// common frame (protocol messages are tens of bytes) and a whole coalesced
// batch of them, without pinning much memory per connection.
const defaultBufCap = 4096

// poolCapLimit bounds what PutBuffer will recycle. A join-snapshot reply
// can legitimately approach MaxFrame; keeping such outliers out of the
// pool stops one huge frame from permanently inflating every pooled
// buffer.
const poolCapLimit = 64 << 10

// bufPool recycles frame buffers across encodes, flushes, and scanners,
// so the steady-state hot path never asks the heap for a buffer.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, defaultBufCap)
		return &b
	},
}

// GetBuffer hands out a zero-length frame buffer from the pool. Return it
// with PutBuffer when done; the pointer form avoids an allocation per
// round-trip (a bare slice would escape into the interface).
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer recycles a buffer obtained from GetBuffer. Oversized buffers
// (grown past poolCapLimit by an outlier frame) are dropped instead, so
// the pool's steady-state footprint stays bounded.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > poolCapLimit {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Scanner reads length-prefixed frames from a connection through one
// bufio.Reader and one reusable payload buffer: after warm-up, scanning a
// stream of fixed-field frames performs zero heap allocations per frame
// (TestScannerZeroAllocs). DecodeFrame copies every field it returns, so
// reusing the payload buffer between calls is safe.
//
// A Scanner is owned by a single reader goroutine; it is not safe for
// concurrent use.
type Scanner struct {
	r   *bufio.Reader
	buf []byte
}

// NewScanner builds a Scanner over r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, defaultBufCap), buf: make([]byte, 0, defaultBufCap)}
}

// HasFrame reports whether a whole frame is already buffered, so that the
// next Next returns without reading from the connection. A reader uses it
// to tell "more of the batch the remote flushed" from "wait for the
// network". It never reads, blocks or allocates.
func (s *Scanner) HasFrame() bool {
	have := s.r.Buffered() - 4
	if have < 0 {
		return false
	}
	hdr, _ := s.r.Peek(4)
	return uint32(have) >= binary.BigEndian.Uint32(hdr)
}

// Next reads and decodes one frame. It returns exactly ReadFrame's errors:
// io errors from the connection, ErrTooLarge for a hostile length prefix,
// and DecodeFrame's errors for malformed payloads.
func (s *Scanner) Next() (Frame, error) {
	// The header reads into the reusable payload buffer (not a local
	// array, which would escape through io.ReadFull and cost one heap
	// allocation per frame).
	if cap(s.buf) < 4 {
		s.buf = make([]byte, 0, defaultBufCap)
	}
	hdr := s.buf[:4]
	if _, err := io.ReadFull(s.r, hdr); err != nil {
		return Frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > MaxFrame {
		return Frame{}, ErrTooLarge
	}
	if cap(s.buf) < n {
		s.buf = make([]byte, 0, n)
	}
	payload := s.buf[:n]
	if _, err := io.ReadFull(s.r, payload); err != nil {
		return Frame{}, err
	}
	return DecodeFrame(payload)
}
