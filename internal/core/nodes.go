package core

// What the real-TCP experiments share: every node they run is stood up
// by internal/cluster; this file holds the trace replayer, the retrying
// senders, the mailbox read-back and the poll loop.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mailstore"
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

// heldMail is one mail a sender holds until a node stores it.
type heldMail struct {
	rcpts []string
	body  string
	sent  workload.Sent
	acked time.Time // when the 250 came
	err   error
}

// sendHeld sends every mail to addr through workload.SendRetrying,
// slots senders at a time, each taking every slots-th mail in turn, and
// calls onAck after each 250. wait returns once every sender is done.
func sendHeld(addr string, mails []heldMail, slots int, onAck func()) (wait func()) {
	deadline := time.Now().Add(60 * time.Second)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(mails); i += slots {
				m := &mails[i]
				m.sent, m.err = workload.SendRetrying(addr, fmt.Sprintf("peer%d@remote.example", i),
					m.rcpts, []byte(m.body), trace.Context{}, deadline)
				m.acked = time.Now()
				if m.err == nil && onAck != nil {
					onAck()
				}
			}
		}(s)
	}
	return wg.Wait
}

// storedCopies reads the first users mailboxes of st back and counts
// each (mailbox, body) pair, keyed mailbox + "\x00" + body.
func storedCopies(st *mailstore.MFS, users int) (map[string]int, error) {
	copies := map[string]int{}
	for i := 0; i < users; i++ {
		box := fmt.Sprintf("user%04d", i)
		ids, err := st.List(box)
		if errors.Is(err, mailstore.ErrNotFound) {
			continue // never written to
		}
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			body, err := st.Read(box, id)
			if err != nil {
				return nil, err
			}
			copies[box+"\x00"+string(body)]++
		}
	}
	return copies, nil
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
