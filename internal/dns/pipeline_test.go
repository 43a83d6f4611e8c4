package dns

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// The attempt schedule's knobs: no node sets them (every node runs the
// defaults NewPipelined sets), so they live with the tests that do.

// WithAttemptTimeout bounds each individual send-and-wait attempt
// (default 500ms). Loss is detected after this long, not after the whole
// query deadline.
func WithAttemptTimeout(d time.Duration) PipelinedOption {
	return func(c *pipelineConfig) { c.attemptTimeout = d }
}

// WithAttempts sets how many times a flight sends the query before
// giving up (default 3: the original send plus two retries).
func WithAttempts(n int) PipelinedOption {
	return func(c *pipelineConfig) { c.attempts = n }
}

// WithBackoff sets the base delay between retries, doubled per attempt
// (default 10ms).
func WithBackoff(d time.Duration) PipelinedOption {
	return func(c *pipelineConfig) { c.backoff = d }
}

// startEchoServer boots a UDP server whose listener is optionally wrapped
// in fault injection, answering every A question with 127.0.0.2.
func startEchoServer(t *testing.T, faults *FaultConfig) *Server {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if faults != nil {
		pc = NewFaultConn(pc, *faults)
	}
	srv := NewServer(pc, echoHandler())
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestPipelinedBasicQuery(t *testing.T) {
	srv := startEchoServer(t, nil)
	p, err := NewPipelined([]string{srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	resp, err := p.Query(context.Background(), NewQuery(7, "4.3.2.1.bl.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].RData[3] != 2 {
		t.Fatalf("answer = %+v", resp.Answers)
	}
	if p.Retries() != 0 || p.Hedges() != 0 {
		t.Fatalf("clean query needed %d retries, %d hedges", p.Retries(), p.Hedges())
	}
}

func TestPipelinedNeedsUpstream(t *testing.T) {
	if _, err := NewPipelined(nil); err == nil {
		t.Fatal("no-upstream transport constructed")
	}
}

func TestPipelinedQueryAfterClose(t *testing.T) {
	srv := startEchoServer(t, nil)
	p, err := NewPipelined([]string{srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	_, err = p.Query(context.Background(), NewQuery(1, "x.example", TypeA))
	if err == nil {
		t.Fatal("query on closed transport succeeded")
	}
}

// TestPipelinedSharedSocketDemux is the -race stress test: many
// goroutines issue concurrent queries over ONE shared socket, and each
// must get the answer to its own question back, demultiplexed by
// transaction ID.
func TestPipelinedSharedSocketDemux(t *testing.T) {
	// Answer every A question with the last label-decimal byte of the
	// query so responses are distinguishable per caller.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pc, HandlerFunc(func(q Question) *Message {
		var tag byte
		fmt.Sscanf(q.Name, "h%d.", &tag)
		return &Message{
			Questions: []Question{q},
			Answers:   []RR{ARecord(q.Name, 60, 127, 0, 0, tag)},
		}
	}))
	defer srv.Close()

	p, err := NewPipelined([]string{srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tag := byte((g*perG + i) % 200)
				name := fmt.Sprintf("h%d.bl.example", tag)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := p.Query(ctx, NewQuery(0, name, TypeA))
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Answers) != 1 || resp.Answers[0].RData[3] != tag {
					errs <- fmt.Errorf("%s: got answer %v, want tag %d", name, resp.Answers, tag)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.Queries(); got != goroutines*perG {
		t.Fatalf("server saw %d queries, want %d", got, goroutines*perG)
	}
}

// TestPipelinedRecoversFromFaults is the table test: heavy loss and
// heavy truncation must both be survived by retries, where the naive
// single-shot transport would time out or fail.
func TestPipelinedRecoversFromFaults(t *testing.T) {
	cases := []struct {
		name   string
		faults FaultConfig
	}{
		{"loss", FaultConfig{Loss: 0.4, Seed: 11}},
		{"truncation", FaultConfig{Truncate: 0.4, Seed: 12}},
		{"duplication", FaultConfig{Duplicate: 0.5, Seed: 13}},
		{"reordering", FaultConfig{Reorder: 0.3, Seed: 14}},
		{"everything", FaultConfig{Loss: 0.15, Duplicate: 0.2, Reorder: 0.15, Truncate: 0.15, Seed: 15}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := startEchoServer(t, &tc.faults)
			p, err := NewPipelined([]string{srv.Addr().String()},
				WithAttemptTimeout(40*time.Millisecond),
				WithBackoff(time.Millisecond),
				WithAttempts(8))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("q%d.bl.example", i)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := p.Query(ctx, NewQuery(0, name, TypeA))
				cancel()
				if err != nil {
					t.Fatalf("query %d under %s: %v", i, tc.name, err)
				}
				if len(resp.Answers) != 1 {
					t.Fatalf("query %d: answers = %+v", i, resp.Answers)
				}
			}
			if tc.faults.Loss > 0 || tc.faults.Truncate > 0 {
				if p.Retries() == 0 {
					t.Fatalf("%s: no retries recorded despite injected faults", tc.name)
				}
			}
		})
	}
}

// TestPipelinedHedgeRecoversFromBlackholePrimary points the primary
// upstream at a socket that never answers: only the hedged flight to the
// replica can succeed, and it must do so quickly.
func TestPipelinedHedgeRecoversFromBlackholePrimary(t *testing.T) {
	blackhole, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	srv := startEchoServer(t, nil)

	p, err := NewPipelined(
		[]string{blackhole.LocalAddr().String(), srv.Addr().String()},
		WithHedgeDelay(10*time.Millisecond),
		WithAttemptTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := p.Query(ctx, NewQuery(0, "x.bl.example", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	// The win must come from the replica far sooner than the primary's
	// full retry schedule (3 × 50ms + backoff).
	if d := time.Since(start); d > 120*time.Millisecond {
		t.Fatalf("hedged answer took %v", d)
	}
	if p.Hedges() != 1 {
		t.Fatalf("hedges = %d, want 1", p.Hedges())
	}
}

// TestPipelinedHonoursContextDeadline: a blackholed upstream with no
// replicas must fail by the caller's deadline, not the full retry
// schedule.
func TestPipelinedHonoursContextDeadline(t *testing.T) {
	blackhole, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackhole.Close()
	p, err := NewPipelined([]string{blackhole.LocalAddr().String()},
		WithAttemptTimeout(time.Second), WithAttempts(10))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.Query(ctx, NewQuery(0, "x.example", TypeA))
	if err == nil {
		t.Fatal("blackholed query succeeded")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("deadline ignored: query held the caller %v", d)
	}
}

// TestFaultConnDeterministic: same seed, same fault sequence.
func TestFaultConnDeterministic(t *testing.T) {
	run := func() FaultStats {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fc := NewFaultConn(pc, FaultConfig{Loss: 0.3, Seed: 99})
		srv := NewServer(fc, echoHandler())
		defer srv.Close()
		p, err := NewPipelined([]string{srv.Addr().String()},
			WithAttemptTimeout(30*time.Millisecond), WithBackoff(time.Millisecond), WithAttempts(8))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for i := 0; i < 20; i++ {
			if _, err := p.Query(context.Background(), NewQuery(0, fmt.Sprintf("d%d.example", i), TypeA)); err != nil {
				t.Fatal(err)
			}
		}
		return fc.Stats()
	}
	a, b := run(), run()
	if a.Dropped == 0 {
		t.Fatal("no faults injected")
	}
	if a != b {
		t.Fatalf("fault sequences diverged: %+v vs %+v", a, b)
	}
}
