package smtp

import (
	"errors"
	"syscall"
	"time"
)

// AcceptBackoff paces an accept loop through a shortage of descriptors,
// socket buffers or memory. Accept fails with EMFILE, ENFILE, ENOBUFS or
// ENOMEM when the process or the kernel runs out of one — the state a
// connection flood drives a server into — and the shortage passes as
// connections close, so a loop that ended on such an error would take a
// node down over load it is built to shed. The zero value is ready; an
// accept loop calls Retry on each error and Reset after each connection.
type AcceptBackoff struct{ delay time.Duration }

// Retry reports whether err is a shortage to wait out and how long to
// wait before the next Accept: 5 ms after the first failure, doubling
// with each failure after it up to 1 s, the schedule net/http's server
// keeps.
func (b *AcceptBackoff) Retry(err error) (time.Duration, bool) {
	if !errors.Is(err, syscall.EMFILE) && !errors.Is(err, syscall.ENFILE) &&
		!errors.Is(err, syscall.ENOBUFS) && !errors.Is(err, syscall.ENOMEM) {
		return 0, false
	}
	b.delay = min(max(2*b.delay, 5*time.Millisecond), time.Second)
	return b.delay, true
}

// Reset starts the next shortage over at the shortest wait.
func (b *AcceptBackoff) Reset() { b.delay = 0 }
