package workload

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/dnsbl"
	"repro/internal/policy"
	"repro/internal/smtpserver"
	"repro/internal/trace"
)

// startServer boots a hybrid server accepting @d.test recipients.
func startServer(t *testing.T, opts ...smtpserver.Option) (addr string, accepted *int64, mu *sync.Mutex) {
	t.Helper()
	var n int64
	var m sync.Mutex
	enqueue := func(string, []string, []byte) (string, error) {
		m.Lock()
		n++
		m.Unlock()
		return "Q", nil
	}
	all := append([]smtpserver.Option{
		smtpserver.WithHostname("mx.test"),
		smtpserver.WithArchitecture(smtpserver.Hybrid),
		smtpserver.WithValidateRcpt(func(a string) bool {
			return strings.HasSuffix(strings.ToLower(a), "@d.test")
		}),
		smtpserver.WithMaxWorkers(8),
		smtpserver.WithIdleTimeout(5 * time.Second),
	}, opts...)
	srv, err := smtpserver.New(enqueue, all...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), &n, &m
}

// mixTrace builds a small trace with known composition.
func mixTrace() []trace.Conn {
	var conns []trace.Conn
	for i := 0; i < 10; i++ {
		conns = append(conns, trace.Conn{
			Helo:      "good.test",
			Sender:    "s@x.test",
			Rcpts:     []trace.Rcpt{{Addr: "u@d.test", Valid: true}},
			SizeBytes: 600,
		})
	}
	for i := 0; i < 4; i++ {
		conns = append(conns, trace.Conn{
			Helo:   "bad.test",
			Sender: "s@x.test",
			Rcpts:  []trace.Rcpt{{Addr: "ghost@other.test", Valid: false}},
		})
	}
	for i := 0; i < 2; i++ {
		conns = append(conns, trace.Conn{Helo: "gone.test", Unfinished: true})
	}
	return conns
}

func TestRunClosed(t *testing.T) {
	addr, accepted, mu := startServer(t)
	res := RunClosed(ClosedConfig{Addr: addr, Concurrency: 4, Timeout: 5 * time.Second}, mixTrace())
	if res.GoodMails != 10 || res.BounceConns != 4 || res.Unfinished != 2 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	mu.Lock()
	defer mu.Unlock()
	if *accepted != 10 {
		t.Fatalf("server accepted %d, want 10", *accepted)
	}
	if res.Goodput() <= 0 {
		t.Fatal("goodput should be positive")
	}
	if res.Latency.Count() != 10 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
}

func TestRunClosedSingleSlotSerializes(t *testing.T) {
	addr, _, _ := startServer(t)
	res := RunClosed(ClosedConfig{Addr: addr, Concurrency: 1, Timeout: 5 * time.Second}, mixTrace())
	if res.GoodMails != 10 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunClosedThinkTime(t *testing.T) {
	addr, _, _ := startServer(t)
	conns := mixTrace()[:4]
	start := time.Now()
	res := RunClosed(ClosedConfig{Addr: addr, Concurrency: 1, Think: 30 * time.Millisecond, Timeout: 5 * time.Second}, conns)
	if res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if elapsed := time.Since(start); elapsed < 4*30*time.Millisecond {
		t.Fatalf("think time not honoured: %v", elapsed)
	}
}

func TestRunOpenAtRate(t *testing.T) {
	addr, _, _ := startServer(t)
	conns := mixTrace()
	res := RunOpen(OpenConfig{Addr: addr, Rate: 200, Timeout: 5 * time.Second}, conns)
	if res.GoodMails != 10 || res.BounceConns != 4 || res.Unfinished != 2 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	// 16 connections at 200/s must take at least 75ms.
	if res.Elapsed < 75*time.Millisecond {
		t.Fatalf("open pacing too fast: %v", res.Elapsed)
	}
}

func TestRunOpenTraceTimestamps(t *testing.T) {
	addr, _, _ := startServer(t)
	conns := mixTrace()[:3]
	for i := range conns {
		conns[i].At = time.Duration(i) * 40 * time.Millisecond
	}
	start := time.Now()
	res := RunOpen(OpenConfig{Addr: addr, Timeout: 5 * time.Second}, conns)
	if res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("trace timestamps not honoured")
	}
}

// everyoneListed is a DNSBL that lists every client.
type everyoneListed struct{}

func (everyoneListed) Lookup(context.Context, addr.IPv4) (dnsbl.Result, error) {
	return dnsbl.Result{Listed: true}, nil
}

func TestRejectedCounted(t *testing.T) {
	addr, _, _ := startServer(t, smtpserver.WithPolicy(policy.NewServerPolicy(
		policy.New(policy.WithDNSBLReject(1)),
		policy.NewScorer(policy.WithLists(policy.List{Name: "bl.test", Resolver: everyoneListed{}, Weight: 1})))))
	res := RunClosed(ClosedConfig{Addr: addr, Concurrency: 2, Timeout: 5 * time.Second}, mixTrace()[:4])
	if res.Rejected != 4 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestErrorsCountedOnDeadServer(t *testing.T) {
	// Dial a port nobody listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	res := RunClosed(ClosedConfig{Addr: dead, Concurrency: 2, Timeout: 200 * time.Millisecond}, mixTrace()[:3])
	if res.Errors != 3 {
		t.Fatalf("errors = %d, want 3", res.Errors)
	}
}

func TestBodyForRespectsSize(t *testing.T) {
	c := &trace.Conn{Sender: "s@x.test", SizeBytes: 5000}
	body := bodyFor(c)
	if len(body) != 5000 {
		t.Fatalf("body = %d bytes, want 5000", len(body))
	}
	small := bodyFor(&trace.Conn{Sender: "s@x.test", SizeBytes: 0})
	if len(small) == 0 {
		t.Fatal("zero-size conn should still get a body")
	}
}

func TestGoodputZeroElapsed(t *testing.T) {
	if (Result{GoodMails: 5}).Goodput() != 0 {
		t.Fatal("zero elapsed should give zero goodput")
	}
}
