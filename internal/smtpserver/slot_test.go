package smtpserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/smtp"
)

// wire is a raw client connection: it writes whatever it is given, so a
// test can pipeline, and reads replies one at a time.
type wire struct {
	t  *testing.T
	nc net.Conn
	c  *smtp.Conn
}

func dialWire(t *testing.T, env *testEnv) *wire {
	t.Helper()
	nc, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &wire{t: t, nc: nc, c: smtp.NewConn(nc)}
}

// play writes send and reads one reply per code, failing on any other.
func (w *wire) play(send string, codes ...int) {
	w.t.Helper()
	if send != "" {
		if _, err := w.nc.Write([]byte(send)); err != nil {
			w.t.Fatal(err)
		}
	}
	w.nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for _, want := range codes {
		if r, err := w.c.ReadReply(); err != nil || r.Code != want {
			w.t.Fatalf("after %q: reply %v, %v; want %d", send, r, err, want)
		}
	}
}

// silent fails if any reply arrives within d.
func (w *wire) silent(d time.Duration, what string) {
	w.t.Helper()
	w.nc.SetReadDeadline(time.Now().Add(d)) //nolint:errcheck
	r, err := w.c.ReadReply()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		w.t.Fatalf("%s: read %v, %v; want nothing for %v", what, r, err, d)
	}
}

// trustedHolder opens a connection that names a valid recipient and then
// idles in its dialog, holding a worker slot under either architecture.
func trustedHolder(t *testing.T, env *testEnv) *smtp.Client {
	t.Helper()
	holder := dial(t, env)
	if err := holder.Helo("holder.test"); err != nil {
		t.Fatal(err)
	}
	if err := holder.Mail("s@x.test"); err != nil {
		t.Fatal(err)
	}
	if r, err := holder.Rcpt("a@valid.test"); err != nil || r.Code != 250 {
		t.Fatalf("holder RCPT = %v, %v", r, err)
	}
	return holder
}

// waitSlots polls until the server has counted handoffs trusted
// connections and observed waits handoff_wait samples, or fails.
func waitSlots(t *testing.T, srv *Server, handoffs, waits int64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		h, w := srv.Stats().Handoffs, srv.stage[StageHandoffWait].Count()
		if h == handoffs && w == waits {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("smtpd_handoffs_total = %d and handoff_wait count = %d, want %d and %d", h, w, handoffs, waits)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerSlotIsTakenWhereTheArchitectureSays: with one worker slot
// held by a trusted connection, a vanilla connection gets no banner until
// the slot frees, since the accept loop takes the slot before serving it;
// a hybrid connection is served up to its first valid RCPT without one —
// a bounce runs to its QUIT — and the trusted one waits for the slot
// before its DATA is answered.
func TestWorkerSlotIsTakenWhereTheArchitectureSays(t *testing.T) {
	const quiet = 200 * time.Millisecond
	forEachArch(t, func(t *testing.T, arch Architecture) {
		env := startServer(t, arch, WithMaxWorkers(1))
		holder := trustedHolder(t, env)
		switch arch {
		case Vanilla:
			waitSlots(t, env.srv, 0, 1)
			second := dialWire(t, env)
			second.silent(quiet, "banner with the one slot held")
			waitSlots(t, env.srv, 0, 1)
			if err := holder.Quit(); err != nil {
				t.Fatal(err)
			}
			second.play("", 220)
			waitSlots(t, env.srv, 0, 2)
			second.play("QUIT\r\n", 221)
		case Hybrid:
			waitSlots(t, env.srv, 1, 1)
			bounce := dialWire(t, env)
			bounce.play("", 220)
			bounce.play("HELO bounce.test\r\n", 250)
			bounce.play("MAIL FROM:<s@x.test>\r\n", 250)
			bounce.play("RCPT TO:<guess@wrong.test>\r\n", 550)
			bounce.play("QUIT\r\n", 221)
			waitStats(t, env.srv, func(s Stats) bool { return s.PreTrustClosed == 1 })

			third := dialWire(t, env)
			third.play("", 220)
			third.play("HELO third.test\r\n", 250)
			third.play("MAIL FROM:<s@x.test>\r\n", 250)
			third.play("RCPT TO:<b@valid.test>\r\n", 250)
			third.play("DATA\r\n")
			third.silent(quiet, "354 with the one slot held")
			waitSlots(t, env.srv, 2, 1)
			if err := holder.Quit(); err != nil {
				t.Fatal(err)
			}
			third.play("", 354)
			waitSlots(t, env.srv, 2, 2)
			third.play("body\r\n.\r\n", 250)
			third.play("QUIT\r\n", 221)
			if got := env.captured(); len(got) != 1 || got[0].rcpts[0] != "b@valid.test" {
				t.Fatalf("captured = %+v, want the third connection's mail", got)
			}
		}
	})
}

type sinkFunc func(eventlog.Event)

func (f sinkFunc) Emit(e eventlog.Event) { f(e) }

// TestCloseWaitsForEveryConnection: Close returns only once every
// connection it saw is finished — one holding the only slot with its
// mail's enqueue in flight, a trusted one waiting for the slot (under
// vanilla, an accepted one the accept loop holds until the slot frees),
// an idle one before trust, and whatever a dialler running through Close
// got accepted — so no connection event and no enqueue call follows its
// return.
func TestCloseWaitsForEveryConnection(t *testing.T) {
	forEachArch(t, func(t *testing.T, arch Architecture) {
		var closed atomic.Bool
		var lateEvents, lateEnqueues atomic.Int64
		log := eventlog.New(eventlog.WithObserver(sinkFunc(func(e eventlog.Event) {
			if e.Name == "smtpd.conn" && closed.Load() {
				lateEvents.Add(1)
			}
		})))
		env := startServer(t, arch, WithMaxWorkers(1), WithEventLog(log))
		// The holder's mail is still being enqueued when Close starts.
		entered, left := make(chan struct{}), make(chan struct{})
		var holding sync.Once
		env.setEnqueue(func(string, []string, []byte) (string, error) {
			if closed.Load() {
				lateEnqueues.Add(1)
				return "Q", nil
			}
			holding.Do(func() {
				close(entered)
				time.Sleep(100 * time.Millisecond)
				close(left)
			})
			return "Q", nil
		})

		holder := trustedHolder(t, env)
		defer holder.Abort() //nolint:errcheck

		// The waiter pipelines a whole mail after its HELO; under hybrid
		// its RCPT trusts it and it waits for the slot with the rest of
		// the burst unread.
		waiter := dialWire(t, env)
		body := "Subject: waiter\r\n\r\nbody\r\n"
		burst := fmt.Sprintf("MAIL FROM:<s@x.test>\r\nRCPT TO:<b@valid.test>\r\nBDAT %d LAST\r\n%sQUIT\r\n", len(body), body)
		if arch == Hybrid {
			waiter.play("", 220)
			waiter.play("HELO waiter.test\r\n", 250)
			waiter.play(burst)
			waitStats(t, env.srv, func(s Stats) bool { return s.Handoffs == 2 })
			idle := dialWire(t, env)
			idle.play("", 220)
			idle.play("HELO idle.test\r\n", 250)
		} else {
			waiter.play("HELO waiter.test\r\n" + burst)
			waitStats(t, env.srv, func(s Stats) bool { return s.Connections == 2 })
			dialWire(t, env) // idle, behind the waiter
		}

		stop := make(chan struct{})
		var dialling sync.WaitGroup
		defer func() {
			close(stop)
			dialling.Wait()
		}()
		dialling.Add(1)
		go func() {
			defer dialling.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if nc, err := net.DialTimeout("tcp", env.addr, time.Second); err == nil {
					nc.Write([]byte("HELO dialler.test\r\n")) //nolint:errcheck
					nc.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}()
		time.Sleep(20 * time.Millisecond)

		sent := make(chan error, 1)
		go func() { sent <- holder.Data([]byte("held\r\n")) }()
		select {
		case <-entered:
		case err := <-sent:
			t.Fatalf("the holder's mail was answered (%v) before its enqueue was seen", err)
		}
		done := make(chan error, 1)
		go func() {
			err := env.srv.Close()
			closed.Store(true)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close still waiting after 2 s")
		}
		// Whatever the holder's connection does once its enqueue returns
		// would follow Close's return if Close had not waited for it.
		<-left
		time.Sleep(50 * time.Millisecond)
		<-sent
		if n := lateEvents.Load(); n != 0 {
			t.Fatalf("%d smtpd.conn events after Close returned", n)
		}
		if n := lateEnqueues.Load(); n != 0 {
			t.Fatalf("%d enqueue calls after Close returned", n)
		}
	})
}
