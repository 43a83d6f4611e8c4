package spool

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// Frame is one mail as its spool file holds it, in a pooled buffer:
//
//	[slack][u32 len(env)][env][u32 len(body)][body]
//
// The envelope frame is right-aligned against the body frame, so it can be
// re-encoded without moving the body and the file image is always the
// buffer's tail: Append and Rewrite write the bytes Body is a view of. A
// frame has one owner, the queue item built on it, until Release.
type Frame struct {
	id    string
	buf   []byte
	start int // the image is buf[start:]
	body  int // the body is buf[body:]
}

// maxPooledFrame bounds the buffer a released frame may keep, like
// smtp.maxPooledData: one 16 MiB mail pins nothing in the pool.
const maxPooledFrame = 256 << 10

var framePool = sync.Pool{New: func() any { return new(Frame) }}

const poisonByte = 0xDB

// getFrame returns a frame whose buffer is n bytes long.
func getFrame(n int) *Frame {
	f := framePool.Get().(*Frame)
	if cap(f.buf) < n {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	return f
}

// NewFrame builds the spool image of a mail: env's encoding and a copy of
// body. The caller keeps body.
func NewFrame(env Envelope, body []byte) (*Frame, error) {
	n, err := envelopeLen(env)
	if err != nil {
		return nil, err
	}
	f := getFrame(8 + n + len(body))
	f.body = 8 + n
	binary.LittleEndian.PutUint32(f.buf[f.body-4:], uint32(len(body)))
	copy(f.buf[f.body:], body)
	f.putEnvelope(env, n)
	return f, nil
}

// putEnvelope writes env's frame, n bytes of payload, up against the body's.
func (f *Frame) putEnvelope(env Envelope, n int) {
	f.id = env.ID
	f.start = f.body - 8 - n
	binary.LittleEndian.PutUint32(f.buf[f.start:], uint32(n))
	appendEnvelope(f.buf[f.start+4:f.start+4], env)
}

// SetEnvelope replaces the envelope in the image. A queued mail's envelope
// only shrinks (fixed-width counters, recipients only removed; Recover
// leaves room for the trace a v1 envelope gains), so it fits the slack.
func (f *Frame) SetEnvelope(env Envelope) error {
	n, err := envelopeLen(env)
	if err != nil {
		return err
	}
	if 8+n > f.body {
		return fmt.Errorf("spool: %s: envelope grew %d bytes past its frame", f.id, 8+n-f.body)
	}
	f.putEnvelope(env, n)
	return nil
}

// Body returns the mail body: a view of the frame, valid until Release.
func (f *Frame) Body() []byte { return f.buf[f.body:] }

// Release gives the frame up for reuse; no view of it may be read again. A
// caller that cannot tell leaves the frame to the GC instead. In a test
// binary the buffer is overwritten first, so a view kept past Release reads
// poisonByte and not the next mail.
func (f *Frame) Release() {
	if testing.Testing() {
		b := f.buf[:cap(f.buf)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	if cap(f.buf) > maxPooledFrame {
		return
	}
	framePool.Put(f)
}
