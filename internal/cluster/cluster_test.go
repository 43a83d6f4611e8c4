package cluster

import (
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/costmodel"
	"repro/internal/delivery"
	"repro/internal/director"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/smtp"
	"repro/internal/smtpserver"
	"repro/internal/spool"
	"repro/internal/trace"
	"repro/internal/workload"
)

const users = 8

// mails builds n single-recipient mails spread over the users.
func mails(n int) []trace.Conn {
	conns := make([]trace.Conn, n)
	for i := range conns {
		conns[i] = trace.Conn{
			Helo:   "client.test",
			Sender: fmt.Sprintf("s%d@remote.example", i),
			Rcpts:  []trace.Rcpt{{Addr: fmt.Sprintf("user%04d@%s", i%users, DefaultDomain), Valid: true}},
		}
	}
	return conns
}

// send replays conns against addr and fails the test unless every one
// was acknowledged.
func send(t *testing.T, addr string, conns []trace.Conn) {
	t.Helper()
	res := workload.RunClosed(workload.ClosedConfig{Addr: addr, Concurrency: 4, Timeout: 5 * time.Second}, conns)
	if res.Errors != 0 || res.GoodMails != int64(len(conns)) {
		t.Fatalf("sent %d mails: %d acked, %d errors", len(conns), res.GoodMails, res.Errors)
	}
}

// mailboxEntries reopens the node on fs and counts what its mailboxes hold.
func mailboxEntries(t *testing.T, fs fsim.FS) int {
	t.Helper()
	sh, err := StartShard(ShardSpec{FS: fs, Mailboxes: users})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sh.Close()
	total := 0
	for i := 0; i < users; i++ {
		box := fmt.Sprintf("user%04d", i)
		ids, err := sh.Store.List(box)
		if err != nil {
			t.Fatalf("list %s: %v", box, err)
		}
		for _, id := range ids {
			if _, err := sh.Store.Read(box, id); err != nil {
				t.Fatalf("read %s/%s: %v", box, id, err)
			}
		}
		total += len(ids)
	}
	return total
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flaky fails every mail's first delivery attempt and is slow on the
// second, so when the client has its last 250 part of the backlog is
// still queued and part is parked on a retry timer.
type flaky struct{ inner queue.Deliverer }

func (f flaky) Deliver(item *queue.Item) error {
	if item.Attempts == 1 {
		return fmt.Errorf("transient")
	}
	time.Sleep(time.Millisecond)
	return f.inner.Deliver(item)
}

func TestCloseDrainsBeforeTheStoreCloses(t *testing.T) {
	const n = 60
	fs := fsim.NewFault()
	sh, err := StartShard(ShardSpec{
		FS:        fs,
		Mailboxes: users,
		Deliverer: func(local *delivery.Agent) queue.Deliverer { return flaky{local} },
		Queue:     queue.Config{ActiveLimit: 1, RetryDelay: 30 * time.Millisecond, MaxRetryDelay: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	send(t, sh.Addr, mails(n))
	if sh.Queue.Stats().Delivered == n {
		t.Fatal("nothing left to drain: the test does not exercise Close's order")
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every acked mail was delivered — retries included — while the store
	// was still open …
	if st := sh.Queue.Stats(); st.Delivered != n {
		t.Fatalf("after Close: %+v, want %d delivered", st, n)
	}
	if _, err := net.DialTimeout("tcp", sh.Addr, time.Second); err == nil {
		t.Fatal("still listening after Close")
	}
	// … and is readable from the files Close left behind.
	if got := mailboxEntries(t, fs); got != n {
		t.Fatalf("%d mailbox entries after Close, want %d", got, n)
	}
}

func TestTeardownIsIdempotent(t *testing.T) {
	base := runtime.NumGoroutine()
	closed, err := StartShard(ShardSpec{Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	send(t, closed.Addr, mails(4))
	if err := closed.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := closed.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	closed.Kill()

	killed, err := StartShard(ShardSpec{Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	killed.Kill()
	killed.Kill()
	if err := killed.Close(); err != nil {
		t.Fatalf("Close after Kill: %v", err)
	}
	waitGoroutines(t, base)
}

func TestFailedStartLeavesNothingBehind(t *testing.T) {
	base := runtime.NumGoroutine()

	// The last step fails: everything before it was built and must go.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	fs := fsim.NewFault()
	if _, err := StartShard(ShardSpec{FS: fs, Addr: taken.Addr().String()}); err == nil {
		t.Fatal("listening on a taken address succeeded")
	}
	waitGoroutines(t, base)
	// The store was closed, not abandoned: the same files open again.
	sh, err := StartShard(ShardSpec{FS: fs})
	if err != nil {
		t.Fatalf("start after a failed start on the same FS: %v", err)
	}
	sh.Close()
	waitGoroutines(t, base)
}

// down fails every delivery: the mail stays spooled.
func down(*queue.Item) error { return fmt.Errorf("mailbox storage down") }

func TestRestartAfterCrashRecoversTheSpool(t *testing.T) {
	const n = 24
	fault := fsim.NewFault()
	spec := ShardSpec{
		FS:        fault,
		Mailboxes: users,
		Deliverer: func(*delivery.Agent) queue.Deliverer { return queue.DelivererFunc(down) },
		Queue:     queue.Config{MaxAttempts: 1 << 20, RetryDelay: 20 * time.Millisecond, MaxRetryDelay: 20 * time.Millisecond},
	}
	sh, err := StartShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	send(t, sh.Addr, mails(n))
	if !waitFor(func() bool { return sh.Queue.Stats().Deferred >= n }) {
		t.Fatalf("%d deferrals before the crash, want every one of %d mails tried", sh.Queue.Stats().Deferred, n)
	}

	// Power cut, then the dead process's goroutines are collected.
	fault.Crash()
	sh.Kill()
	fault.Recover()

	spec.Deliverer = nil
	sh2, err := StartShard(spec)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sh2.Kill()
	recovered := 0
	for _, lane := range spool.Lanes {
		recovered += sh2.Queue.RecoveryStats().Recovered[lane]
	}
	if recovered != n {
		t.Fatalf("restart recovered %d spooled mails, want %d", recovered, n)
	}
	if !sh2.Queue.WaitIdle(10*time.Second) || sh2.Queue.Stats().Delivered != n {
		t.Fatalf("after restart: %+v, want %d delivered", sh2.Queue.Stats(), n)
	}
	if err := sh2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := mailboxEntries(t, fault); got != n {
		t.Fatalf("%d mailbox entries after recovery, want %d", got, n)
	}
}

// TestAckedMailSurvivesPowerCut: once a node has acked and delivered a
// mail, the queue has unlinked its spool copy, so the mailbox store holds
// the only one. A power cut right after that must lose none of it: every
// addressed mailbox holds each acked body, byte for byte, exactly once.
// The mails take every store path a node has: one recipient, three (MFS's
// shared record) and the postmaster alias.
func TestAckedMailSurvivesPowerCut(t *testing.T) {
	fault := fsim.NewFault()
	spec := ShardSpec{FS: fault}
	sh, err := StartShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := smtp.Dial(sh.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{} // mailbox → the bodies it must hold
	sendOne := func(i int, boxes ...string) {
		t.Helper()
		rcpts := make([]string, len(boxes))
		for j, box := range boxes {
			rcpts[j] = box + "@" + DefaultDomain
		}
		body := fmt.Sprintf("Subject: mail %d\r\n\r\nfor %v\r\n.dot-stuffed line\r\n", i, boxes)
		if n, err := c.Send(fmt.Sprintf("s%d@remote.example", i), rcpts, []byte(body)); err != nil || n != len(rcpts) {
			t.Fatalf("mail %d: %d of %d recipients accepted, %v", i, n, len(rcpts), err)
		}
		for _, box := range boxes {
			if box == "postmaster" {
				box = "user0000"
			}
			want[box] = append(want[box], body)
		}
	}
	for i := 0; i < 6; i++ {
		sendOne(i, fmt.Sprintf("user%04d", i%4))
	}
	for i := 6; i < 10; i++ {
		sendOne(i, fmt.Sprintf("user%04d", i%5), fmt.Sprintf("user%04d", i%5+1), fmt.Sprintf("user%04d", i%5+2))
	}
	sendOne(10, "postmaster")
	c.Quit() //nolint:errcheck
	if !sh.Queue.WaitIdle(5 * time.Second) {
		t.Fatalf("queue never idle: %+v", sh.Queue.Stats())
	}

	fault.Crash()
	sh.Kill()
	fault.Recover()

	sh2, err := StartShard(spec)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sh2.Close()
	if !sh2.Queue.WaitIdle(5 * time.Second) {
		t.Fatalf("queue never idle after the restart: %+v", sh2.Queue.Stats())
	}
	for _, lane := range spool.Lanes {
		if d := sh2.Queue.LaneDepth(lane); d != 0 {
			t.Fatalf("lane %s holds %d mails after the restart", lane, d)
		}
	}
	holdsExactly(t, sh2, want)
}

// holdsExactly fails the test unless each mailbox of sh, after a power
// cut, holds exactly the bodies want lists for it, each once.
func holdsExactly(t *testing.T, sh *Shard, want map[string][]string) {
	t.Helper()
	for box, bodies := range want {
		ids, err := sh.Store.List(box)
		if err != nil {
			t.Fatalf("%s after the power cut: %v", box, err)
		}
		var got []string
		for _, id := range ids {
			body, err := sh.Store.Read(box, id)
			if err != nil {
				t.Fatalf("%s/%s after the power cut: %v", box, id, err)
			}
			got = append(got, string(body))
		}
		sort.Strings(got)
		sort.Strings(bodies)
		if !slices.Equal(got, bodies) {
			t.Fatalf("%s after the power cut holds %q, want %q", box, got, bodies)
		}
	}
}

// TestZeroSpecShardBounces: a spec that says nothing about bounces is the
// production mode, so a mail that exhausts its attempts comes back to its
// sender as a DSN reported by the node's own hostname; nothing the node
// acked goes unaccounted.
func TestZeroSpecShardBounces(t *testing.T) {
	sh, err := StartShard(ShardSpec{
		Mailboxes: users,
		Deliverer: func(local *delivery.Agent) queue.Deliverer {
			return queue.DelivererFunc(func(item *queue.Item) error {
				if item.Sender == "" {
					return local.Deliver(item) // the DSN on its way back
				}
				return down(item)
			})
		},
		Queue: queue.Config{RetryDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Kill()
	send(t, sh.Addr, []trace.Conn{{
		Helo:   "client.test",
		Sender: "user0001@" + DefaultDomain,
		Rcpts:  []trace.Rcpt{{Addr: "user0000@" + DefaultDomain, Valid: true}},
	}})
	if !sh.Queue.WaitIdle(5 * time.Second) {
		t.Fatalf("queue never idle: %+v", sh.Queue.Stats())
	}
	// Two mails entered the queue: the original, bounced, and its DSN, delivered.
	if st := sh.Queue.Stats(); st.Bounced != 1 || st.Delivered != 1 || st.Enqueued != 2 {
		t.Fatalf("stats = %+v, want the mail bounced and its DSN delivered", st)
	}
	for _, lane := range spool.Lanes {
		if d := sh.Queue.LaneDepth(lane); d != 0 {
			t.Fatalf("lane %s holds %d mails after the drain", lane, d)
		}
	}
	ids, err := sh.Store.List("user0001")
	if err != nil || len(ids) != 1 {
		t.Fatalf("sender's mailbox lists %v, %v; want one DSN", ids, err)
	}
	dsn, err := sh.Store.Read("user0001", ids[0])
	if err != nil || !strings.Contains(string(dsn), "Reporting-MTA: dns; "+Hostname(DefaultDomain)) {
		t.Fatalf("sender's mailbox holds %q, %v; want this node's DSN", dsn, err)
	}
}

func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func TestServeAndDirector(t *testing.T) {
	base := runtime.NumGoroutine()
	sh, err := StartShard(ShardSpec{Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDirector(DirectorSpec{Options: []director.Option{director.WithBackend("shard", sh.Addr)}})
	if err != nil {
		t.Fatal(err)
	}
	send(t, d.Addr, mails(6))
	d.Close()
	d.Close()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Queue.Stats().Delivered; got != 6 {
		t.Fatalf("shard behind the director delivered %d mails, want 6", got)
	}

	var got int
	srv, err := smtpserver.New(func(string, []string, []byte) (string, error) { got++; return "id", nil },
		smtpserver.WithMaxWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	addr, stop, err := Serve(srv)
	if err != nil {
		t.Fatal(err)
	}
	send(t, addr, mails(3))
	stop()
	stop()
	if got != 3 {
		t.Fatalf("bare front end took %d mails, want 3", got)
	}
	waitGoroutines(t, base)
}

// TestRestartOnEmptySpoolKeepsBothMails: a node that drained its spool and
// restarts must not issue the queue ids of its previous life again — the
// store skips a mailbox that already holds a mail's id, so a reused id is
// a 250 for a mail that is never stored.
func TestRestartOnEmptySpoolKeepsBothMails(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	for life, sender := range []string{"first@remote.example", "second@remote.example"} {
		sh, err := StartShard(ShardSpec{FS: fs, Mailboxes: users})
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		send(t, sh.Addr, []trace.Conn{{
			Helo:   "client.test",
			Sender: sender,
			Rcpts:  []trace.Rcpt{{Addr: "user0001@" + DefaultDomain, Valid: true}},
		}})
		if err := sh.Close(); err != nil {
			t.Fatalf("life %d: Close: %v", life, err)
		}
		if depth := len(fs.List(DefaultSpoolDir + "/" + string(spool.LaneActive) + "/")); depth != 0 {
			t.Fatalf("life %d: %d mails left in the spool, the restart would not be on an empty one", life, depth)
		}
	}
	sh, err := StartShard(ShardSpec{FS: fs, Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ids, err := sh.Store.List("user0001")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("mailbox holds %v after two acked mails, want two distinct ids", ids)
	}
	if ids[0] != "Q0000000000000001" {
		t.Fatalf("first id on a fresh spool = %s, want Q0000000000000001", ids[0])
	}
}

// TestFullDiskRefusesWith452: on a full disk — no new file can be made, so
// neither the store (the mail's mailbox is new) nor the spool can take the
// mail — a shard answers DATA with a 452: the mail is refused, so its
// sender keeps it. It leaves nothing of it for spool recovery, still
// serves what it stored before, and takes mail again once the disk has
// room.
func TestFullDiskRefusesWith452(t *testing.T) {
	fault := fsim.NewFault()
	reg := metrics.NewRegistry()
	sh, err := StartShard(ShardSpec{FS: fault, Mailboxes: users, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	before := mails(2)
	send(t, sh.Addr, before[:1])
	if !sh.Queue.WaitIdle(5 * time.Second) {
		t.Fatalf("queue never idle: %+v", sh.Queue.Stats())
	}
	stored, err := sh.Store.List("user0000")
	if err != nil || len(stored) != 1 {
		t.Fatalf("user0000 lists %v, %v; want the mail sent before the disk filled", stored, err)
	}

	fault.SetHook(func(op, path string, _ int) error {
		if op == "Create" || op == "OpenAppend" && !fault.Exists(path) {
			return &os.PathError{Op: "open", Path: path, Err: syscall.ENOSPC}
		}
		return nil
	})
	c, err := smtp.Dial(sh.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mail("refused@remote.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rcpt("user0001@" + DefaultDomain); err != nil {
		t.Fatal(err)
	}
	var reply *smtp.UnexpectedReplyError
	if err := c.Data([]byte("Subject: no room\r\n\r\nx")); !errors.As(err, &reply) || reply.Reply.Code != 452 {
		t.Fatalf("DATA on a full disk: %v, want a 452", err)
	}
	c.Quit() //nolint:errcheck
	if !waitFor(func() bool {
		m, _ := reg.Find("smtpd_enqueue_failures_total", "arch", "hybrid")
		return m.Value == 1
	}) {
		t.Fatal("smtpd_enqueue_failures_total never reached 1")
	}
	if left, _, err := spool.New(fault, DefaultSpoolDir).Recover(); err != nil || len(left) != 0 {
		t.Fatalf("spool recovery finds %d mails, %v; want nothing of the refused mail", len(left), err)
	}
	if _, err := sh.Store.Read("user0000", stored[0]); err != nil {
		t.Fatalf("mail stored before the disk filled: %v", err)
	}

	fault.SetHook(nil)
	send(t, sh.Addr, before[1:])
	if !sh.Queue.WaitIdle(5 * time.Second) {
		t.Fatalf("queue never idle: %+v", sh.Queue.Stats())
	}
	if ids, err := sh.Store.List("user0001"); err != nil || len(ids) != 1 {
		t.Fatalf("user0001 lists %v, %v; want the one mail sent after the disk had room", ids, err)
	}
}

// TestShardExportsCommitStats: a shard's /metrics carries its store's
// commit engine — after N mails, N committed mails in at most N batches —
// and the rotation a checkpoint forces shows up in the rotation series.
func TestShardExportsCommitStats(t *testing.T) {
	reg := metrics.NewRegistry()
	sh, err := StartShard(ShardSpec{Mailboxes: users, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	scrape := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		admin.NewHandler(reg, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		ms, err := metrics.ParsePrometheus(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, m := range ms {
			if strings.HasPrefix(m.Name, "mfs_") {
				out[m.Name] = m.Value
			}
		}
		return out
	}
	const n = 12
	send(t, sh.Addr, mails(n))
	if !sh.Queue.WaitIdle(5 * time.Second) {
		t.Fatalf("queue never idle: %+v", sh.Queue.Stats())
	}
	got := scrape()
	if got["mfs_commit_mails_total"] != n || got["mfs_commit_batches_total"] < 1 || got["mfs_commit_batches_total"] > n {
		t.Fatalf("after %d mails /metrics reads %v", n, got)
	}
	for _, name := range []string{"mfs_wal_rotations_total", "mfs_wal_rotation_syncs_total", "mfs_wal_rotation_seconds"} {
		if v, ok := got[name]; !ok || v != 0 {
			t.Fatalf("%s = %v (exported %v) before any rotation", name, v, ok)
		}
	}
	if _, err := sh.Store.Checkpoint("ckpt"); err != nil {
		t.Fatal(err)
	}
	got = scrape()
	if got["mfs_wal_rotations_total"] != 1 || got["mfs_wal_rotation_syncs_total"] < 2 || got["mfs_wal_rotation_seconds"] <= 0 {
		t.Fatalf("after a checkpoint's rotation /metrics reads %v", got)
	}
}

// sendMix sends n mails over one SMTP session — one recipient, and every
// third to three — and returns the bodies each mailbox must hold. After
// each 250 it calls acked with the mailboxes the mail went to.
func sendMix(t *testing.T, addr string, n int, acked func(boxes []string)) map[string][]string {
	t.Helper()
	c, err := smtp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit() //nolint:errcheck
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for i := 0; i < n; i++ {
		boxes := []string{fmt.Sprintf("user%04d", i%users)}
		if i%3 == 0 {
			boxes = append(boxes, fmt.Sprintf("user%04d", (i+1)%users), fmt.Sprintf("user%04d", (i+2)%users))
		}
		rcpts := make([]string, len(boxes))
		for j, box := range boxes {
			rcpts[j] = box + "@" + DefaultDomain
		}
		body := fmt.Sprintf("Subject: mail %d\r\n\r\nfor %v\r\n", i, boxes)
		if got, err := c.Send(fmt.Sprintf("s%d@remote.example", i), rcpts, []byte(body)); err != nil || got != len(rcpts) {
			t.Fatalf("mail %d: %d of %d recipients accepted, %v", i, got, len(rcpts), err)
		}
		for _, box := range boxes {
			want[box] = append(want[box], body)
		}
		if acked != nil {
			acked(boxes)
		}
	}
	return want
}

// TestHealthyNodeNeverTouchesTheSpool: a node whose store takes every mail
// commits each one to its mailboxes before the 250 — the mail is there the
// moment the client has the reply, with no wait for the queue — and creates
// and syncs nothing under its spool directory.
func TestHealthyNodeNeverTouchesTheSpool(t *testing.T) {
	const n = 24
	fault := fsim.NewFault()
	sh, err := StartShard(ShardSpec{FS: fault, Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var mu sync.Mutex
	spoolOps := map[string]int{}
	fault.SetHook(func(op, path string, _ int) error {
		if strings.HasPrefix(path, DefaultSpoolDir+"/") {
			mu.Lock()
			spoolOps[op]++
			mu.Unlock()
		}
		return nil
	})
	held := map[string]int{}
	sendMix(t, sh.Addr, n, func(boxes []string) {
		for _, box := range boxes {
			held[box]++
			ids, err := sh.Store.List(box)
			if err != nil || len(ids) != held[box] {
				t.Fatalf("at the 250 %s lists %d mails (%v), want %d", box, len(ids), err, held[box])
			}
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if spoolOps["Create"] != 0 || spoolOps["Sync"] != 0 {
		t.Fatalf("%d mails to a healthy node made spool operations %v, want no Create and no Sync", n, spoolOps)
	}
	if st := sh.Queue.Stats(); st.Enqueued != n || st.Delivered != n {
		t.Fatalf("queue stats %+v, want %d mails enqueued and delivered", st, n)
	}
}

// TestPowerCutRightAfterTheLast250: a healthy node's 250 follows the
// mailbox commit, so a power cut the moment the last 250 is out — no wait
// for the queue — finds every mail in the store's log and none in the
// spool. After the restart nothing is lost and nothing duplicated: each
// mailbox holds each of its bodies exactly once.
func TestPowerCutRightAfterTheLast250(t *testing.T) {
	fault := fsim.NewFault()
	spec := ShardSpec{FS: fault, Mailboxes: users}
	sh, err := StartShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	sent := 0
	want := sendMix(t, sh.Addr, n, func([]string) {
		if sent++; sent == n {
			fault.Crash() // the client has the last 250; the session is still open
		}
	})
	sh.Kill()
	fault.Recover()

	sh2, err := StartShard(spec)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sh2.Close()
	if rs := sh2.Queue.RecoveryStats(); len(rs.Recovered) != 0 || rs.Torn != 0 {
		t.Fatalf("the restart replayed the spool (%+v): an acked mail was not yet in its mailbox", rs)
	}
	holdsExactly(t, sh2, want)
}
