package outbound

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/queue"
)

// sink is a minimal accept-everything SMTP server for outbound tests.
type sink struct {
	ln        net.Listener
	delivered atomic.Int64
	lastFrom  atomic.Value // string
	rejectAll bool
}

func startSink(t *testing.T, rejectAll bool) *sink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{ln: ln, rejectAll: rejectAll}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *sink) addr() string { return s.ln.Addr().String() }

func (s *sink) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "220 sink ready\r\n")
	inData := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if inData {
			if line == "." {
				inData = false
				s.delivered.Add(1)
				fmt.Fprintf(conn, "250 queued\r\n")
			}
			continue
		}
		verb := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(verb, "HELO"), strings.HasPrefix(verb, "EHLO"):
			fmt.Fprintf(conn, "250 sink\r\n")
		case strings.HasPrefix(verb, "MAIL"):
			s.lastFrom.Store(line)
			fmt.Fprintf(conn, "250 ok\r\n")
		case strings.HasPrefix(verb, "RCPT"):
			if s.rejectAll {
				fmt.Fprintf(conn, "550 no such user\r\n")
			} else {
				fmt.Fprintf(conn, "250 ok\r\n")
			}
		case strings.HasPrefix(verb, "DATA"):
			inData = true
			fmt.Fprintf(conn, "354 go\r\n")
		case strings.HasPrefix(verb, "RSET"):
			fmt.Fprintf(conn, "250 ok\r\n")
		case strings.HasPrefix(verb, "QUIT"):
			fmt.Fprintf(conn, "221 bye\r\n")
			return
		default:
			fmt.Fprintf(conn, "500 what\r\n")
		}
	}
}

func TestStaticResolver(t *testing.T) {
	r := NewStatic()
	r.Set("B.Test", MX{Host: "mx1.b.test", Pref: 10}, MX{Host: "mx2.b.test", Pref: 20})
	mxs, err := r.LookupMX(context.Background(), "b.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(mxs) != 2 || mxs[0].Host != "mx1.b.test" {
		t.Fatalf("mxs = %+v", mxs)
	}
	if _, err := r.LookupMX(context.Background(), "unknown.test"); err == nil {
		t.Fatal("unknown domain must not resolve")
	}
}

func TestDeliverMXFailover(t *testing.T) {
	good := startSink(t, false)
	// A dead primary: listen then close immediately so the port refuses.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	res := NewStatic()
	res.Set("b.test", MX{Host: deadAddr, Pref: 10}, MX{Host: good.addr(), Pref: 20})
	reg := metrics.NewRegistry()
	d, err := New(Config{Resolver: res, Registry: reg,
		DialTimeout: time.Second, CommandTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	item := &queue.Item{ID: "Q1", Sender: "a@a.test", Rcpts: []string{"b@b.test"}, Data: []byte("hi")}
	if err := d.Deliver(item); err != nil {
		t.Fatalf("failover delivery failed: %v", err)
	}
	if n := good.delivered.Load(); n != 1 {
		t.Fatalf("sink deliveries = %d, want 1", n)
	}
	if v := reg.Counter("outbound_mx_failover_total").Value(); v != 1 {
		t.Fatalf("failovers = %d, want 1", v)
	}
}

func TestDeliverPartialFailureShrinksRcpts(t *testing.T) {
	good := startSink(t, false)
	res := NewStatic()
	res.Set("ok.test", MX{Host: good.addr(), Pref: 10})
	// "down.test" has no resolver entry at all.
	d, err := New(Config{Resolver: res, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	item := &queue.Item{
		ID:     "Q2",
		Sender: "a@a.test",
		Rcpts:  []string{"x@ok.test", "y@down.test", "z@down.test"},
		Data:   []byte("hi"),
	}
	err = d.Deliver(item)
	if err == nil {
		t.Fatal("want an error for the unresolvable domain")
	}
	if len(item.Rcpts) != 2 || item.Rcpts[0] != "y@down.test" || item.Rcpts[1] != "z@down.test" {
		t.Fatalf("Rcpts not shrunk to the failed subset: %v", item.Rcpts)
	}
	if n := good.delivered.Load(); n != 1 {
		t.Fatalf("sink deliveries = %d, want 1", n)
	}
}

func TestDeliverAllRecipientsRejected(t *testing.T) {
	rejecting := startSink(t, true)
	res := NewStatic()
	res.Set("b.test", MX{Host: rejecting.addr(), Pref: 10})
	d, err := New(Config{Resolver: res, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	item := &queue.Item{ID: "Q3", Sender: "a@a.test", Rcpts: []string{"b@b.test"}, Data: []byte("hi")}
	if err := d.Deliver(item); err == nil {
		t.Fatal("all-rejected transaction must count as a failed delivery")
	}
	if n := rejecting.delivered.Load(); n != 0 {
		t.Fatalf("rejecting sink delivered %d", n)
	}
}

func TestNewRequiresResolver(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error")
	}
}
