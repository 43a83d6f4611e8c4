package core

// What the real-TCP experiments share: every node they run is stood up
// by internal/cluster; this file holds the far sides of a hop, the mail
// injector and the poll loop.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/smtpserver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sink is a front-end-only SMTP site: it accepts every mail, counts it
// and discards it. The front-end experiments measure pipeline stages, not
// the queue and delivery tail; the director experiments use it as the far
// side of a hop.
type sink struct{ mails atomic.Int64 }

func (s *sink) enqueue(sender string, rcpts []string, data []byte) (string, error) {
	s.mails.Add(1)
	return "sunk", nil
}

// localUser is the front-end experiments' recipient check: userNNNN at
// the department domain, no access database behind it.
func localUser(a string) bool {
	return strings.HasPrefix(a, "user") && strings.HasSuffix(a, "@"+cluster.DefaultDomain)
}

// replaySink serves one front end with no queue behind it over loopback
// TCP, replays the trace through the closed-system client, and stops the
// server so its counters and histograms are final.
func replaySink(conns []trace.Conn, sourceLoopback bool, opts ...smtpserver.Option) (*smtpserver.Server, error) {
	srv, err := smtpserver.New(new(sink).enqueue, append([]smtpserver.Option{
		smtpserver.WithHostname(cluster.Hostname(cluster.DefaultDomain)),
		smtpserver.WithIdleTimeout(5 * time.Second),
		smtpserver.WithValidateRcpt(localUser),
	}, opts...)...)
	if err != nil {
		return nil, err
	}
	addr, stop, err := cluster.Serve(srv)
	if err != nil {
		return nil, err
	}
	workload.RunClosed(workload.ClosedConfig{
		Addr:           addr,
		Concurrency:    16,
		Timeout:        10 * time.Second,
		SourceLoopback: sourceLoopback,
	}, conns)
	stop()
	return srv, nil
}

// inject sends every mail in conns to addr through the closed-system
// client, slots connections at a time, and fails unless each one was
// acknowledged: the experiments that call it count on exactly len(conns)
// mails being in the pipeline afterwards.
func inject(addr string, slots int, conns []trace.Conn) error {
	sent := workload.RunClosed(workload.ClosedConfig{Addr: addr, Concurrency: slots, Timeout: 2 * time.Second}, conns)
	if sent.Errors != 0 || sent.GoodMails != int64(len(conns)) {
		return fmt.Errorf("inject: %d of %d mails acked, %d errors", sent.GoodMails, len(conns), sent.Errors)
	}
	return nil
}

// waitFor polls cond until true or timeout.
func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}
