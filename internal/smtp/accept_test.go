package smtp

import (
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestAcceptBackoffSchedule: a shortage waits 5 ms, doubling to a 1 s
// cap, and starts over after Reset; any other Accept error is not
// retried.
func TestAcceptBackoffSchedule(t *testing.T) {
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	var b AcceptBackoff
	want := []time.Duration{5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i, w := range want {
		if d, ok := b.Retry(emfile); !ok || d != w*time.Millisecond {
			t.Fatalf("failure %d: wait %v, %v; want %v", i+1, d, ok, w*time.Millisecond)
		}
	}
	b.Reset()
	for _, errno := range []syscall.Errno{syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM} {
		if d, ok := b.Retry(os.NewSyscallError("accept4", errno)); !ok || d != 5*time.Millisecond {
			t.Fatalf("%v after Reset: wait %v, %v; want 5ms", errno, d, ok)
		}
		b.Reset()
	}
	for _, err := range []error{net.ErrClosed, errors.New("boom"), syscall.ECONNABORTED} {
		if _, ok := b.Retry(err); ok {
			t.Fatalf("%v retried", err)
		}
	}
}
