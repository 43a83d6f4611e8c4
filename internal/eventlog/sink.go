package eventlog

import (
	"io"
	"sync"
)

// writerSink serializes events to an io.Writer one line at a time, with
// an internal lock and a reused buffer so concurrent emitters interleave
// whole lines and steady-state writes don't allocate.
type writerSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	min Level
}

// Emit implements Sink.
func (s *writerSink) Emit(e Event) {
	if e.Level < s.min {
		return
	}
	s.mu.Lock()
	s.buf = e.AppendText(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf) //nolint:errcheck // a dead log writer must not kill the server
	s.mu.Unlock()
}

// NewTextSink returns a sink writing events as text lines to w, keeping
// only events at or above min (so a stderr sink can stay on warnings
// while the ring retains info).
func NewTextSink(w io.Writer, min Level) Sink {
	return &writerSink{w: w, min: min}
}
