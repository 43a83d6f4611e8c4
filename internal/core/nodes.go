package core

// What the real-TCP experiments share: every node they run is stood up
// by internal/cluster; this file holds the trace replayer, the mail
// injector and the poll loop.

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayShard starts the shard spec describes, replays the trace against
// it through the closed-system client, and closes it so its counters and
// histograms are final. The traces address the shard's own users at its
// default domain.
func replayShard(spec cluster.ShardSpec, conns []trace.Conn, sourceLoopback bool) (*cluster.Shard, error) {
	sh, err := cluster.StartShard(spec)
	if err != nil {
		return nil, err
	}
	workload.RunClosed(workload.ClosedConfig{
		Addr:           sh.Addr,
		Concurrency:    16,
		Timeout:        10 * time.Second,
		SourceLoopback: sourceLoopback,
	}, conns)
	return sh, sh.Close()
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
