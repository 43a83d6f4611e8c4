// University: run the departmental workload of the paper's Univ trace —
// a 67/33 spam/ham mix with bounces and unfinished transactions — against
// a real server over loopback TCP, comparing the vanilla and hybrid
// architectures on identical traffic.
//
//	go run ./examples/university
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/queue"
	"repro/internal/smtpserver"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The departmental trace: >400 mailboxes, 67% spam, random-guess
	// bounces and abandoned handshakes mixed in (§4.1).
	conns := trace.NewUniv(trace.UnivConfig{Seed: 7, Connections: 1200}).Generate()
	st := trace.Summarize(conns)
	fmt.Printf("trace: %d connections, %.0f%% spam, %.0f%% bounces, %.0f%% unfinished\n",
		st.Connections,
		100*float64(st.SpamConns)/float64(st.Connections),
		100*st.BounceRatio(), 100*st.UnfinishedRatio())

	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		if err := serveTrace(arch, conns); err != nil {
			return err
		}
	}
	return nil
}

func serveTrace(arch smtpserver.Architecture, conns []trace.Conn) error {
	// One full node in its production defaults (400 mailboxes at
	// dept.example.edu, MFS, 8 delivery workers) but for the architecture
	// under comparison and a 32-process limit.
	node, err := cluster.StartShard(cluster.ShardSpec{
		Queue:   queue.Config{IntakeLimit: 4096},
		Options: []smtpserver.Option{smtpserver.WithArchitecture(arch), smtpserver.WithMaxWorkers(32)},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	res := workload.RunClosed(workload.ClosedConfig{
		Addr:        node.Addr,
		Concurrency: 24,
		Timeout:     10 * time.Second,
	}, conns)
	if !node.Queue.WaitIdle(10 * time.Second) {
		return fmt.Errorf("%s: queue never drained", arch)
	}

	s := node.Server.Stats()
	d := node.Agent.Stats()
	fmt.Printf("\n%s architecture:\n", arch)
	fmt.Printf("  goodput %.0f mails/s over %v (replay is wall-clock, not the paper's testbed)\n",
		res.Goodput(), res.Elapsed.Round(time.Millisecond))
	fmt.Printf("  good=%d bounce=%d unfinished=%d errors=%d\n",
		res.GoodMails, res.BounceConns, res.Unfinished, res.Errors)
	fmt.Printf("  server: handoffs=%d pre-trust closes=%d rcpt-550=%d\n",
		s.Handoffs, s.PreTrustClosed, s.RcptRejected)
	fmt.Printf("  delivered %d mails into %d mailbox copies (MFS shared records: %d)\n",
		d.Mails, d.RcptDeliveries, node.MFS().Store().Stats().SharedRecords)
	if arch == smtpserver.Hybrid && s.Handoffs >= s.Connections {
		return fmt.Errorf("hybrid should not delegate every connection")
	}
	return nil
}
