// Package workload implements the paper's two load generators (Table 1):
//
//   - Client program 1 — the closed-system model: a configurable number
//     of concurrent connection slots, each replaying trace connections
//     back-to-back (optionally with think time). Throughput is governed
//     by concurrency, as in Schroeder et al. (paper ref [24]).
//
//   - Client program 2 — the open-system model: new connections are
//     initiated at a configurable rate regardless of completions, which
//     is what exposes the DNSBL-lookup bottleneck in Figure 14.
//
// Both replay trace.Conn records against a real SMTP server address.
package workload

import (
	"errors"
	"strings"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// Result summarizes one load-generation run.
type Result struct {
	// GoodMails is the number of completed DATA transactions.
	GoodMails int64
	// BounceConns is the number of connections where every recipient was
	// rejected.
	BounceConns int64
	// Unfinished is the number of deliberately abandoned connections.
	Unfinished int64
	// Rejected is the number of connections refused at accept (DNSBL).
	Rejected int64
	// Errors is the number of connections that failed unexpectedly.
	Errors int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Latency samples per-connection completion time in seconds.
	Latency *metrics.Sample
}

// Goodput returns completed mails per second of wall-clock time.
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.GoodMails) / r.Elapsed.Seconds()
}

// bodyFor builds a deterministic message body of the trace-specified
// size.
func bodyFor(c *trace.Conn) []byte {
	size := c.SizeBytes
	if size <= 0 {
		size = 512
	}
	header := "From: " + c.Sender + "\r\nSubject: trace replay\r\n\r\n"
	if size < len(header)+2 {
		size = len(header) + 2
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(header)
	const line = "The quick brown fox jumps over the lazy dog. 0123456789\r\n"
	for b.Len() < size {
		remain := size - b.Len()
		if remain >= len(line) {
			b.WriteString(line)
		} else {
			b.WriteString(line[:remain])
		}
	}
	return []byte(b.String())
}

// connOutcome classifies how one replayed connection ended.
type connOutcome int

const (
	outcomeError connOutcome = iota + 1
	outcomeRejected
	outcomeUnfinished
	outcomeBounce
	outcomeGood
)

// LoopbackSource maps a trace source IP into 127.0.0.0/8 by keeping its
// low three octets: 185.0.2.9 becomes 127.0.2.9. Linux routes the whole
// /8 to the loopback interface and lets clients bind any address in it,
// so a replayer dialing from the mapped address presents each trace
// source as a distinct peer — and sources sharing a /25 (or /24) keep
// sharing it, preserving the locality the caches and policy state key
// on. Trace IPs differing only in their first octet collide; the
// generators keep such overlaps to a handful per trace.
func LoopbackSource(ip addr.IPv4) addr.IPv4 {
	return addr.IPv4(127<<24 | uint32(ip)&0x00ffffff)
}

// replayConn performs one trace connection against the server and
// records the outcome into r under mu.
func replayConn(dest string, c *trace.Conn, local string, timeout time.Duration, r *Result, mu *sync.Mutex) {
	start := time.Now()
	outcome := runConn(dest, c, local, timeout)
	elapsed := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	switch outcome {
	case outcomeError:
		r.Errors++
	case outcomeRejected:
		r.Rejected++
	case outcomeUnfinished:
		r.Unfinished++
	case outcomeBounce:
		r.BounceConns++
	case outcomeGood:
		r.GoodMails++
		r.Latency.Observe(elapsed.Seconds())
	}
}

func runConn(dest string, c *trace.Conn, local string, timeout time.Duration) connOutcome {
	client, err := smtp.DialFrom(dest, local, timeout)
	if err != nil {
		var unexpected *smtp.UnexpectedReplyError
		if errors.As(err, &unexpected) && unexpected.Reply.Code == 554 {
			return outcomeRejected // DNSBL rejection at accept
		}
		return outcomeError
	}
	if err := client.Helo(c.Helo); err != nil {
		client.Abort()
		return outcomeError
	}
	if c.Unfinished {
		client.Abort()
		return outcomeUnfinished
	}
	rcpts := make([]string, len(c.Rcpts))
	for i, rc := range c.Rcpts {
		rcpts[i] = rc.Addr
	}
	accepted, err := client.Send(c.Sender, rcpts, bodyFor(c))
	if err != nil {
		client.Abort()
		return outcomeError
	}
	client.Quit()
	if accepted == 0 {
		return outcomeBounce
	}
	return outcomeGood
}

// ClosedConfig parameterizes the closed-system client.
type ClosedConfig struct {
	// Addr is the server's host:port.
	Addr string
	// Concurrency is the number of connection slots (Client program 1's
	// "configurable number of concurrent connections").
	Concurrency int
	// Think is the per-slot pause between connections (the Z parameter
	// of the closed-system model); zero means none.
	Think time.Duration
	// Timeout bounds each dial and protocol step.
	Timeout time.Duration
	// SourceLoopback dials each connection from LoopbackSource of its
	// trace ClientIP, so the server sees distinct per-source peers over
	// loopback (Linux; requires the target to listen on 127.0.0.1, not a
	// specific other address).
	SourceLoopback bool
}

// localFor returns the source address one connection dials from.
func localFor(sourceLoopback bool, c *trace.Conn) string {
	if !sourceLoopback {
		return ""
	}
	return LoopbackSource(c.ClientIP).String()
}

// RunClosed replays the trace through the closed-system client: each of
// the Concurrency slots takes the next unplayed connection, replays it to
// completion, optionally thinks, and repeats until the trace is drained.
func RunClosed(cfg ClosedConfig, conns []trace.Conn) Result {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	res := Result{Latency: metrics.NewSample(len(conns))}
	var mu sync.Mutex
	next := make(chan *trace.Conn)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				replayConn(cfg.Addr, c, localFor(cfg.SourceLoopback, c), cfg.Timeout, &res, &mu)
				if cfg.Think > 0 {
					time.Sleep(cfg.Think)
				}
			}
		}()
	}
	for i := range conns {
		next <- &conns[i]
	}
	close(next)
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// OpenConfig parameterizes the open-system client.
type OpenConfig struct {
	// Addr is the server's host:port.
	Addr string
	// Rate is the connection initiation rate per second; if zero, the
	// trace's own timestamps pace the run.
	Rate float64
	// Timeout bounds each dial and protocol step.
	Timeout time.Duration
	// SourceLoopback is as in ClosedConfig.
	SourceLoopback bool
}

// RunOpen replays the trace through the open-system client: connection i
// starts at its scheduled time whether or not earlier connections have
// completed (the defining property of the open model).
func RunOpen(cfg OpenConfig, conns []trace.Conn) Result {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	res := Result{Latency: metrics.NewSample(len(conns))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := range conns {
		var due time.Duration
		if cfg.Rate > 0 {
			due = time.Duration(float64(i) / cfg.Rate * float64(time.Second))
		} else {
			due = conns[i].At
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(c *trace.Conn) {
			defer wg.Done()
			replayConn(cfg.Addr, c, localFor(cfg.SourceLoopback, c), cfg.Timeout, &res, &mu)
		}(&conns[i])
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// Sent is how a mail SendRetrying sent fared.
type Sent struct {
	Attempts int           // connections tried, the last one included
	Deferred int           // the code of the first 4xx reply, 0 if none came
	Took     time.Duration // from the first attempt to the 250
}

// SendRetrying sends one mail the way a sending MTA's queue does (RFC
// 5321 §4.5.4): one connection per attempt (EHLO, SendTraced with tc —
// the same context every time, so a retry keeps the first attempt's
// trace id — and QUIT). A 4xx at any step, or a failed connection, is
// retried after a backoff that doubles from 5 ms up to 80 ms, until
// deadline, only for the recipients a 4xx deferred once the mail is
// stored for others. A 5xx, or every recipient refused, ends it at once.
// The error is the last attempt's when no attempt got a 250.
func SendRetrying(addr, sender string, rcpts []string, body []byte, tc trace.Context, deadline time.Time) (Sent, error) {
	var sent Sent
	start := time.Now()
	for wait := 5 * time.Millisecond; ; wait = min(2*wait, 80*time.Millisecond) {
		sent.Attempts++
		var err error
		rcpts, err = sendAttempt(addr, sender, rcpts, body, tc, deadline)
		if err == nil {
			sent.Took = time.Since(start)
			return sent, nil
		}
		var reply *smtp.UnexpectedReplyError
		if errors.As(err, &reply) && reply.Reply.Code/100 == 4 && sent.Deferred == 0 {
			sent.Deferred = reply.Reply.Code
		}
		if reply != nil && reply.Reply.Code/100 == 5 || time.Now().Add(wait).After(deadline) {
			return sent, err
		}
		time.Sleep(wait)
	}
}

// sendAttempt is one attempt of SendRetrying. It returns the recipients
// the next one carries: only the deferred ones once the mail is stored.
func sendAttempt(addr, sender string, rcpts []string, body []byte, tc trace.Context, deadline time.Time) ([]string, error) {
	timeout := max(time.Until(deadline), time.Millisecond)
	c, err := smtp.Dial(addr, timeout, smtp.WithCommandTimeout(timeout))
	if err != nil {
		return rcpts, err
	}
	defer c.Abort() //nolint:errcheck // after QUIT the connection is already closed
	accepted, left := 0, rcpts
	if err = c.Hello("retrying.client"); err == nil {
		accepted, err = c.SendTraced(sender, rcpts, body, tc)
	}
	if err == nil {
		left = nil
		for i, r := range c.RcptReplies() {
			if r.Code/100 == 4 {
				left = append(left, rcpts[i])
				if err == nil {
					err = &smtp.UnexpectedReplyError{Op: "RCPT", Reply: r}
				}
			}
		}
	}
	if err == nil && accepted == 0 {
		err = &smtp.UnexpectedReplyError{Op: "RCPT", Reply: smtp.ReplyUserUnknown}
	}
	if err == nil {
		c.Quit() //nolint:errcheck // the mail is stored; a lost QUIT changes nothing
	}
	return left, err
}
