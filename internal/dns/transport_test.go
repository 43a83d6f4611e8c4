package dns

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// echoHandler answers every A question with 127.0.0.2.
func echoHandler() Handler {
	return HandlerFunc(func(q Question) *Message {
		m := &Message{
			Questions: []Question{q},
			Answers:   []RR{ARecord(q.Name, 60, 127, 0, 0, 2)},
		}
		return m
	})
}

func TestUDPServerAndClient(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pc, echoHandler())
	defer srv.Close()

	tr := &UDPTransport{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	resp, err := tr.Query(context.Background(), NewQuery(0xbeef, "4.3.2.1.bl.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 0xbeef || !resp.Response {
		t.Fatalf("response header: %+v", resp)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].RData[3] != 2 {
		t.Fatalf("answer: %+v", resp.Answers)
	}
	if srv.Queries() != 1 {
		t.Fatalf("server queries = %d, want 1", srv.Queries())
	}
}

func TestUDPServerConcurrentClients(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pc, echoHandler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			tr := &UDPTransport{Server: srv.Addr().String(), Timeout: 2 * time.Second}
			resp, err := tr.Query(context.Background(), NewQuery(id, "x.bl.example", TypeA))
			if err != nil {
				errs <- err
				return
			}
			if resp.ID != id {
				errs <- ErrCorrupt
			}
		}(uint16(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Queries() != 20 {
		t.Fatalf("queries = %d, want 20", srv.Queries())
	}
}

func TestUDPServerServfailOnNilHandlerResponse(t *testing.T) {
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	srv := NewServer(pc, HandlerFunc(func(q Question) *Message { return nil }))
	defer srv.Close()
	tr := &UDPTransport{Server: srv.Addr().String(), Timeout: 2 * time.Second}
	resp, err := tr.Query(context.Background(), NewQuery(1, "x.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != RCodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", resp.RCode)
	}
}

func TestUDPTransportTimeout(t *testing.T) {
	// A listener that never answers.
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	defer pc.Close()
	tr := &UDPTransport{Server: pc.LocalAddr().String(), Timeout: 50 * time.Millisecond}
	_, err := tr.Query(context.Background(), NewQuery(1, "x.example", TypeA))
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	srv := NewServer(pc, echoHandler())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestMemTransport(t *testing.T) {
	tr := &MemTransport{Handler: echoHandler()}
	resp, err := tr.Query(context.Background(), NewQuery(42, "q.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if tr.Queries() != 1 {
		t.Fatalf("queries = %d", tr.Queries())
	}
	// Multiple questions rejected.
	bad := NewQuery(1, "a.example", TypeA)
	bad.Questions = append(bad.Questions, Question{Name: "b.example", Type: TypeA})
	if _, err := tr.Query(context.Background(), bad); err == nil {
		t.Fatal("multi-question query accepted")
	}
}

func TestMemTransportLatencyHook(t *testing.T) {
	called := false
	tr := &MemTransport{
		Handler: echoHandler(),
		Latency: func(q Question) time.Duration {
			called = true
			return 0
		},
	}
	tr.Query(context.Background(), NewQuery(1, "x.example", TypeA))
	if !called {
		t.Fatal("latency hook not invoked")
	}
}

func TestCacheHitMissExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCache(clock, 0)

	if _, _, ok := c.Get([]byte("x.example"), TypeA); ok {
		t.Fatal("empty cache hit")
	}
	msg := &Message{ID: 1}
	c.Put("x.example", TypeA, msg, time.Hour)
	got, peer, ok := c.Get([]byte("x.example"), TypeA)
	if !ok || peer || got != msg {
		t.Fatal("fresh entry missed")
	}
	// Different qtype is a different key.
	if _, _, ok := c.Get([]byte("x.example"), TypeAAAA); ok {
		t.Fatal("qtype collision")
	}
	// Expiry.
	now = now.Add(2 * time.Hour)
	if _, _, ok := c.Get([]byte("x.example"), TypeA); ok {
		t.Fatal("expired entry returned")
	}
}

func TestCacheZeroTTLNotStored(t *testing.T) {
	c := NewCache(nil, 0)
	c.Put("x", TypeA, &Message{}, 0)
	if c.Len() != 0 {
		t.Fatal("zero-TTL entry stored")
	}
}

func TestCacheDefaultClock(t *testing.T) {
	c := NewCache(nil, 0)
	c.Put("x", TypeA, &Message{}, time.Hour)
	if _, _, ok := c.Get([]byte("x"), TypeA); !ok {
		t.Fatal("real-clock cache lost a fresh entry")
	}
}

// TestCacheSweepsExpiredEntries: entries that not even Stale would serve
// are dropped by the next store, so a flood of distinct names does not
// stay in memory for ever; an entry inside the stale window survives.
func TestCacheSweepsExpiredEntries(t *testing.T) {
	now := time.Unix(1000, 0)
	const ttl, staleFor = time.Hour, 30 * time.Minute
	c := NewCache(func() time.Time { return now }, staleFor)
	for i := 0; i < 100_000; i++ {
		c.Put(fmt.Sprintf("h%d.example", i), TypeA, &Message{}, ttl)
	}
	now = now.Add(ttl + staleFor - time.Minute)
	c.Put("late.example", TypeA, &Message{}, ttl)
	if c.Len() != 100_001 {
		t.Fatalf("Len = %d inside the stale window, want 100001", c.Len())
	}
	if _, age, ok := c.Stale("h7.example", TypeA); !ok || age != staleFor-time.Minute {
		t.Fatalf("Stale = age %v ok %v, want %v true", age, ok, staleFor-time.Minute)
	}
	now = now.Add(2 * time.Minute)
	c.Put("live.example", TypeA, &Message{}, ttl)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after 100k names expired past the stale window, want the 2 live ones", c.Len())
	}
}
