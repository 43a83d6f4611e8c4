package repro

// Full-stack integration tests: the complete composition a deployment
// would run — hybrid SMTP server over TCP, postfix-style queue with a
// spool, the delivery agent writing through MFS on real files, and a live
// DNSBLv6 server over UDP feeding the connect-time check — driven by the
// synthetic workloads.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/delivery"
	"repro/internal/dns"
	"repro/internal/dnsbl"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/policy"
	"repro/internal/queue"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stack is one fully wired mail server: a cluster.Shard on real files.
type stack struct {
	*cluster.Shard
	fs fsim.FS
}

func startStack(t *testing.T, arch smtpserver.Architecture, opts ...smtpserver.Option) *stack {
	t.Helper()
	s := &stack{fs: fsim.NewOS(t.TempDir())}
	var err error
	s.Shard, err = cluster.StartShard(cluster.ShardSpec{
		FS:    s.fs,
		Queue: queue.Config{IntakeLimit: 8192},
		Options: append([]smtpserver.Option{
			smtpserver.WithArchitecture(arch),
			smtpserver.WithMaxWorkers(16),
			smtpserver.WithIdleTimeout(10 * time.Second),
		}, opts...),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFullStackUnivWorkload(t *testing.T) {
	for _, arch := range []smtpserver.Architecture{smtpserver.Vanilla, smtpserver.Hybrid} {
		t.Run(arch.String(), func(t *testing.T) {
			s := startStack(t, arch)
			conns := trace.NewUniv(trace.UnivConfig{Seed: 21, Connections: 400}).Generate()
			want := trace.Summarize(conns)

			res := workload.RunClosed(workload.ClosedConfig{
				Addr: s.Addr, Concurrency: 12, Timeout: 10 * time.Second,
			}, conns)
			if res.Errors != 0 {
				t.Fatalf("replay errors: %+v", res)
			}
			if res.GoodMails != int64(want.Delivering) {
				t.Fatalf("good mails = %d, trace delivering = %d", res.GoodMails, want.Delivering)
			}
			if res.BounceConns != int64(want.Bounces) || res.Unfinished != int64(want.Unfinished) {
				t.Fatalf("bounce/unfinished mismatch: %+v vs %+v", res, want)
			}

			if !s.Queue.WaitIdle(10 * time.Second) {
				t.Fatal("queue never drained")
			}
			qs := s.Queue.Stats()
			if qs.Delivered != int64(want.Delivering) || qs.Held != 0 || qs.Bounced != 0 {
				t.Fatalf("queue stats = %+v", qs)
			}

			// Every valid recipient copy landed in a mailbox.
			ds := s.Agent.Stats()
			if ds.Mails != int64(want.Delivering) {
				t.Fatalf("delivered mails = %d, want %d", ds.Mails, want.Delivering)
			}

			// Spool is empty after successful delivery.
			if leftovers := s.fs.List("queue/incoming/"); len(leftovers) != 0 {
				t.Fatalf("spool leftovers: %v", leftovers)
			}

			// Hybrid never delegates bounce-only or unfinished connections.
			st := s.Server.Stats()
			if arch == smtpserver.Hybrid {
				if st.Handoffs != int64(want.Delivering) {
					t.Fatalf("handoffs = %d, want %d", st.Handoffs, want.Delivering)
				}
			}
		})
	}
}

func TestFullStackMailboxContentsExact(t *testing.T) {
	s := startStack(t, smtpserver.Hybrid)
	client, err := smtp.Dial(s.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Helo("test.client"); err != nil {
		t.Fatal(err)
	}
	body := "Subject: exact\r\n\r\nline one\r\n.dot-stuffed line\r\nlast\r\n"
	n, err := client.Send("sender@remote.example",
		[]string{"user0001@dept.example.edu", "user0002@dept.example.edu"}, []byte(body))
	if err != nil || n != 2 {
		t.Fatalf("send = %d, %v", n, err)
	}
	client.Quit()
	if !s.Queue.WaitIdle(5 * time.Second) {
		t.Fatal("queue never drained")
	}
	for _, box := range []string{"user0001", "user0002"} {
		ids, err := s.Store.List(box)
		if err != nil || len(ids) != 1 {
			t.Fatalf("%s: list = %v, %v", box, ids, err)
		}
		got, err := s.Store.Read(box, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("%s: body = %q, want %q", box, got, body)
		}
	}
	// Single copy on disk: the MFS shared store holds exactly one record.
	if st := s.Store.Store().Stats(); st.SharedRecords != 1 || st.SharedRefs != 2 {
		t.Fatalf("MFS stats = %+v", st)
	}
}

func TestFullStackWithLiveDNSBL(t *testing.T) {
	// A real DNSBLv6 server over UDP; the SMTP server rejects listed
	// clients at accept time. Loopback clients are judged by their
	// connecting IP (127.0.0.1), so the test controls listing by adding
	// or removing that address.
	const zone = "bl6.test.example"
	list := dnsbl.NewList(zone)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dnsSrv := dns.NewServer(pc, &dnsbl.V6Handler{List: list})
	defer dnsSrv.Close()

	lookup := dnsbl.New(zone,
		dnsbl.WithUpstreams(dnsSrv.Addr().String()),
		dnsbl.WithTTL(10*time.Millisecond))
	defer lookup.Close()
	// What `smtpd -dnsbl` runs without -policy: the blacklist and nothing else.
	s := startStack(t, smtpserver.Hybrid, smtpserver.WithPolicy(policy.NewServerPolicy(
		policy.New(policy.WithDNSBLReject(1)),
		policy.NewScorer(policy.WithLists(policy.List{Name: zone, Resolver: lookup, Weight: 1})))))

	send := func() error {
		client, err := smtp.Dial(s.Addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer client.Abort()
		if err := client.Helo("h"); err != nil {
			return err
		}
		if _, err := client.Send("s@r.example",
			[]string{"user0003@dept.example.edu"}, []byte("m")); err != nil {
			return err
		}
		return client.Quit()
	}

	// Clean client: accepted.
	if err := send(); err != nil {
		t.Fatalf("clean client rejected: %v", err)
	}
	// Blacklist 127.0.0.1 and wait out the short cache TTL: rejected with 554.
	list.Add(addr.MustParseIPv4("127.0.0.1"), dnsbl.CodeZombie)
	time.Sleep(20 * time.Millisecond)
	err = send()
	if err == nil || !strings.Contains(err.Error(), "554") {
		t.Fatalf("listed client err = %v, want 554 banner", err)
	}
	if n := s.Server.Stats().PolicyRejected; n != 1 {
		t.Fatalf("policy-rejected count = %d", n)
	}
	// Delist (cache expires quickly): accepted again.
	list.Remove(addr.MustParseIPv4("127.0.0.1"))
	time.Sleep(20 * time.Millisecond)
	if err := send(); err != nil {
		t.Fatalf("delisted client rejected: %v", err)
	}
	if dnsSrv.Queries() == 0 {
		t.Fatal("DNSBL server never queried")
	}
}

func TestFullStackPersistenceAcrossRestart(t *testing.T) {
	// Mail delivered before a shutdown must be readable by a fresh stack
	// over the same directory (MFS on-disk durability end to end).
	dir := t.TempDir()
	fs := fsim.NewOS(dir)
	deliverOnce := func(id string) {
		store, err := mailstore.NewMFS(fs, "mfs")
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := store.Deliver(id, []string{"alice", "bob"}, []byte("persist "+id)); err != nil {
			t.Fatal(err)
		}
	}
	deliverOnce("Q1")
	deliverOnce("Q2") // a second "process lifetime" appends to the same files

	store, err := mailstore.NewMFS(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, box := range []string{"alice", "bob"} {
		ids, err := store.List(box)
		if err != nil || len(ids) != 2 {
			t.Fatalf("%s after restart: %v, %v", box, ids, err)
		}
		got, err := store.Read(box, "Q2")
		if err != nil || string(got) != "persist Q2" {
			t.Fatalf("%s read = %q, %v", box, got, err)
		}
	}
}

func TestFullStackBackpressure(t *testing.T) {
	// A delivery agent that times out once and then stalls: the timeout
	// sends new mail to the spool, where the stall fills the bounded
	// queue; the server must answer 452 instead of accepting mail it
	// cannot durably queue, and recover once the agent drains.
	const domain = "dept.example.edu"
	block := make(chan struct{})
	var timedOut atomic.Bool
	var blocked queue.DelivererFunc = func(item *queue.Item) error {
		if timedOut.CompareAndSwap(false, true) {
			return errors.New("mailbox storage timed out")
		}
		<-block
		return nil
	}
	sh, err := cluster.StartShard(cluster.ShardSpec{
		Mailboxes: 10,
		Deliverer: func(*delivery.Agent) queue.Deliverer { return blocked },
		Queue:     queue.Config{ActiveLimit: 1, IntakeLimit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	qm := sh.Queue

	client, err := smtp.Dial(sh.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client.Helo("h")
	saw452 := false
	for i := 0; i < 5; i++ {
		client.Mail("s@r.example")
		client.Rcpt(fmt.Sprintf("user%04d@%s", i, domain))
		if err := client.Data([]byte("m")); err != nil {
			if strings.Contains(err.Error(), "452") {
				saw452 = true
				break
			}
			t.Fatal(err)
		}
	}
	if !saw452 {
		t.Fatal("queue backpressure never surfaced as 452")
	}
	// Unblock and verify the connection recovers.
	close(block)
	if !qm.WaitIdle(5 * time.Second) {
		t.Fatal("queue never drained")
	}
	client.Mail("s@r.example")
	client.Rcpt("user0001@" + domain)
	if err := client.Data([]byte("after recovery")); err != nil {
		t.Fatalf("post-recovery send failed: %v", err)
	}
	client.Quit()
}
