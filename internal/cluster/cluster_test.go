package cluster

import (
	"encoding/json"
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
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/costmodel"
	"repro/internal/director"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/smtp"
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

// TestCloseWaitsForTheCommitInFlight: Close stops the front end first,
// which waits for every worker and so for the commit a worker is in, and
// closes the store only after that. A commit stalled in its log fsync
// holds Close up; the stalled call returns before the store's last step
// (removing its dirty marker) runs, and after a power cut and a restart
// every mail that got a 250 — and the one whose commit Close waited
// for — is in its mailbox.
func TestCloseWaitsForTheCommitInFlight(t *testing.T) {
	fault := fsim.NewFault()
	spec := ShardSpec{FS: fault, Mailboxes: users}
	sh, err := StartShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Kill()
	want := sendMix(t, sh.Addr, 8, nil)

	stalled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var returned, closedUnder atomic.Bool
	fault.SetHook(func(op, path string, _ int) error {
		switch {
		case op == "Sync" && path == MFSDir+"/mfs.wal":
			stall := false
			once.Do(func() { stall = true })
			if stall {
				close(stalled)
				<-release
				returned.Store(true)
			}
		case op == "Remove" && path == MFSDir+"/mfs.dirty" && !returned.Load():
			closedUnder.Store(true)
		}
		return nil
	})
	const stuck = "Subject: stalled\r\n\r\ncommitted while the node closed\r\n"
	sent := make(chan error, 1)
	go func() {
		c, err := smtp.Dial(sh.Addr, 5*time.Second)
		if err == nil {
			if err = c.Helo("client.test"); err == nil {
				_, err = c.Send("late@remote.example", []string{"user0007@" + DefaultDomain}, []byte(stuck))
			}
			c.Abort() //nolint:errcheck
		}
		sent <- err
	}()
	<-stalled
	closed := make(chan error, 1)
	go func() { closed <- sh.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a commit was stalled in its log fsync", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-sent // the reply to the stalled mail may be lost with the connection Close cut
	if closedUnder.Load() {
		t.Fatal("the store closed while a commit was still in its log fsync")
	}
	if _, err := net.DialTimeout("tcp", sh.Addr, time.Second); err == nil {
		t.Fatal("still listening after Close")
	}

	fault.Crash()
	fault.Recover()
	fault.SetHook(nil)
	sh2, err := StartShard(spec)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sh2.Close()
	want["user0007"] = append(want["user0007"], stuck)
	holdsExactly(t, sh2, want)
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

// TestStartBadAddress: an address that does not parse is refused at
// start, by a shard and a director alike.
func TestStartBadAddress(t *testing.T) {
	if _, err := StartShard(ShardSpec{Addr: "127.0.0.1:notaport"}); err == nil {
		t.Fatal("a shard started on a bad address")
	}
	opts := []director.Option{director.WithBackend("shard", "127.0.0.1:1")}
	if _, err := StartDirector(DirectorSpec{Addr: "127.0.0.1:notaport", Options: opts}); err == nil {
		t.Fatal("a director started on a bad address")
	}
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

// TestAckedMailSurvivesPowerCut: once a node has acked a mail, the
// mailbox store holds its only copy. A power cut right after that must lose none of it: every
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

	fault.Crash()
	sh.Kill()
	fault.Recover()

	sh2, err := StartShard(spec)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer sh2.Close()
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
	first := d.Close()
	if err := d.Close(); err != first {
		t.Fatalf("second Close = %v, the first returned %v", err, first)
	}
	select {
	case <-d.Served():
	default:
		t.Fatal("Served is still open after Close")
	}
	// Close QUITs the director's pooled connections to the shard even
	// though stopping the front end closed the director's engine first:
	// every connection the shard saw ends as a served session, not as
	// one the shard's own Close has to cut.
	if !waitFor(func() bool {
		st := sh.Server.Stats()
		return st.Connections > 0 && st.SessionsServed == st.Connections
	}) {
		st := sh.Server.Stats()
		t.Fatalf("shard served %d of %d connections to the end: the director's pools were not drained",
			st.SessionsServed, st.Connections)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Agent.Stats().Mails; got != 6 {
		t.Fatalf("shard behind the director stored %d mails, want 6", got)
	}
	waitGoroutines(t, base)
}

// TestRestartNeverReissuesAnID: a node that restarts must not issue the
// mail ids of its previous life again — the store skips a mailbox that
// already holds a mail's id, so a reused id is a 250 for a mail that is
// never stored. Two lives on one FS give two distinct ids, and the first
// id on a fresh FS is Q0000000000000001.
func TestRestartNeverReissuesAnID(t *testing.T) {
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
		t.Fatalf("first id on a fresh FS = %s, want Q0000000000000001", ids[0])
	}
}

// TestIDsContinueAnEarlierEpoch: a node started on an FS whose id
// directory holds the epoch record an earlier node left — epoch 5 — mints
// its ids in epoch 6, so no id of that node's lives is issued again.
func TestIDsContinueAnEarlierEpoch(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	f, err := fs.Create("queue/epoch/000005")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	sh, err := StartShard(ShardSpec{FS: fs, Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	send(t, sh.Addr, mails(1))
	ids, err := sh.Store.List("user0000")
	if err != nil || len(ids) != 1 {
		t.Fatalf("user0000 lists %v, %v; want one mail", ids, err)
	}
	if want := fmt.Sprintf("Q%06X%010X", 6, 1); ids[0] != want {
		t.Fatalf("first id after epoch 5 = %s, want %s", ids[0], want)
	}
	if names := fs.List("queue/"); !slices.Equal(names, []string{"queue/epoch/000006"}) {
		t.Fatalf("id directory holds %v, want the epoch 6 record alone", names)
	}
}

// TestRefusesMailLeftInTheSpool: a node does not start on an FS where a
// spooling node left mail under queue/ — it would never be delivered —
// and the error names the file, which it leaves as it found it.
func TestRefusesMailLeftInTheSpool(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	const left = "queue/active/Q0000000000000007"
	f, err := fs.Create(left)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("a spooled mail")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if sh, err := StartShard(ShardSpec{FS: fs, Mailboxes: users}); err == nil {
		sh.Close()
		t.Fatal("a node started over mail left in its spool")
	} else if !strings.Contains(err.Error(), left) {
		t.Fatalf("StartShard: %v; want an error naming %s", err, left)
	}
	if size, err := fs.Size(left); err != nil || size != int64(len("a spooled mail")) {
		t.Fatalf("%s after the refused start: size %d, %v; want it untouched", left, size, err)
	}
	if names := fs.List("queue/"); !slices.Equal(names, []string{left}) {
		t.Fatalf("queue/ holds %v after the refused start, want %s alone", names, left)
	}
}

// TestFullDiskRefusesWith452: on a full disk — no new file can be made,
// so the store cannot take a mail whose mailbox is new — a shard answers
// DATA with a 452: the mail is refused, so its sender keeps it. It still
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
	if _, err := sh.Store.Read("user0000", stored[0]); err != nil {
		t.Fatalf("mail stored before the disk filled: %v", err)
	}

	fault.SetHook(nil)
	send(t, sh.Addr, before[1:])
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
	const n = 12
	send(t, sh.Addr, mails(n))
	got := scrapeMFS(t, reg)
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
	got = scrapeMFS(t, reg)
	if got["mfs_wal_rotations_total"] != 1 || got["mfs_wal_rotation_syncs_total"] < 2 || got["mfs_wal_rotation_seconds"] <= 0 {
		t.Fatalf("after a checkpoint's rotation /metrics reads %v", got)
	}
}

// scrapeMFS reads reg's mfs_ series through the admin handler, as a
// scraper sees them.
func scrapeMFS(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	admin.NewHandler(reg, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var ms []metrics.Metric
	if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil {
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

// TestShardExportsSharedStore: a shard's /metrics carries the shared
// store's footprint — one 3-recipient mail is one single copy serving
// three mailboxes, and deleting it from all three leaves none.
func TestShardExportsSharedStore(t *testing.T) {
	reg := metrics.NewRegistry()
	sh, err := StartShard(ShardSpec{Mailboxes: users, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	footprint := func() [2]float64 {
		got := scrapeMFS(t, reg)
		return [2]float64{got["mfs_shared_records"], got["mfs_shared_refs"]}
	}
	if got := footprint(); got != [2]float64{0, 0} {
		t.Fatalf("an empty store reads records/refs %v", got)
	}
	boxes := []string{"user0000", "user0001", "user0002"}
	c, err := smtp.Dial(sh.Addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Helo("client.test"); err != nil {
		t.Fatal(err)
	}
	rcpts := make([]string, len(boxes))
	for i, box := range boxes {
		rcpts[i] = box + "@" + DefaultDomain
	}
	if got, err := c.Send("s@remote.example", rcpts, []byte("Subject: three\r\n\r\nfor three\r\n")); err != nil || got != len(rcpts) {
		t.Fatalf("%d of %d recipients accepted, %v", got, len(rcpts), err)
	}
	c.Quit() //nolint:errcheck
	if got := footprint(); got != [2]float64{1, 3} {
		t.Fatalf("after one 3-recipient mail records/refs read %v, want [1 3]", got)
	}
	for _, box := range boxes {
		ids, err := sh.Store.List(box)
		if err != nil || len(ids) != 1 {
			t.Fatalf("%s lists %v, %v", box, ids, err)
		}
		if err := sh.Store.Delete(box, ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := footprint(); got != [2]float64{0, 0} {
		t.Fatalf("after deleting it from every mailbox records/refs read %v, want [0 0]", got)
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

// TestHealthyNodeNeverTouchesTheSpool: a node commits each mail to its
// mailboxes before the 250 — the mail is there the moment the client has
// the reply — and creates nothing under its id directory but its epoch
// record.
func TestHealthyNodeNeverTouchesTheSpool(t *testing.T) {
	const n = 24
	fault := fsim.NewFault()
	var mu sync.Mutex
	var created []string
	fault.SetHook(func(op, path string, _ int) error {
		if (op == "Create" || op == "OpenAppend" || op == "Link") && strings.HasPrefix(path, "queue/") {
			mu.Lock()
			created = append(created, path)
			mu.Unlock()
		}
		return nil
	})
	sh, err := StartShard(ShardSpec{FS: fault, Mailboxes: users})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
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
	if !slices.Equal(created, []string{"queue/epoch/000000"}) {
		t.Fatalf("%d mails to a node created %v under queue/, want its epoch record alone", n, created)
	}
	if got := sh.Agent.Stats().Mails; got != n {
		t.Fatalf("agent committed %d mails, want %d", got, n)
	}
}

// TestPowerCutRightAfterTheLast250: a node's 250 follows the mailbox
// commit, so a power cut the moment the last 250 is out finds every mail
// in the store's log. After the restart nothing is lost and nothing
// duplicated: each mailbox holds each of its bodies exactly once.
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
	holdsExactly(t, sh2, want)
}

// outageMail is one mail of the store-outage scenario and how its
// sender fared.
type outageMail struct {
	box, body string
	attempts  int
	err       error
}

// storeOutage runs the store-outage scenario: n mails from remote
// senders, four sessions at a time, each sent by workload.SendRetrying.
// Mid-storm every fsync of the store's log fails with EIO, which stops
// the store; the senders then hold their mails and retry the 4xx. After
// a while the node goes down — by a power cut, or by Close — and comes
// back on the same FS and address with the disk healthy, and the senders'
// retries get their 250s. It returns each mail and the restarted node.
func storeOutage(t *testing.T, powerCut bool) ([]outageMail, *Shard) {
	t.Helper()
	const n, sessions = 48, 4
	fault := fsim.NewFault()
	spec := ShardSpec{FS: fault, Mailboxes: users}
	sh, err := StartShard(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Addr = sh.Addr // the restarted node is where the senders retry

	out := make([]outageMail, n)
	var firstTry atomic.Int64 // mails stored on their first attempt so far
	var wg sync.WaitGroup
	deadline := time.Now().Add(30 * time.Second)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < n; i += sessions {
				m := &out[i]
				m.box = fmt.Sprintf("user%04d", i%users)
				m.body = fmt.Sprintf("From: s%d@remote.example\r\nSubject: outage mail %d\r\n\r\nx\r\n", i, i)
				var sent workload.Sent
				sent, m.err = workload.SendRetrying(spec.Addr, fmt.Sprintf("s%d@remote.example", i),
					[]string{m.box + "@" + DefaultDomain}, []byte(m.body), trace.Context{}, deadline)
				m.attempts = sent.Attempts
				if m.err == nil && m.attempts == 1 {
					firstTry.Add(1)
				}
			}
		}(s)
	}
	if !waitFor(func() bool { return firstTry.Load() >= n/4 }) {
		t.Fatalf("%d mails stored before the fault, want %d", firstTry.Load(), n/4)
	}
	fault.SetHook(func(op, path string, _ int) error {
		if op == "Sync" && path == MFSDir+"/mfs.wal" {
			return &os.PathError{Op: "fsync", Path: path, Err: syscall.EIO}
		}
		return nil
	})
	// Long enough for a node that acks and queues a refused mail (three
	// attempts, then a DSN) to give up on it, so such a node fails here.
	time.Sleep(500 * time.Millisecond)
	if powerCut {
		fault.Crash()
		sh.Kill()
		fault.Recover()
	} else {
		sh.Close() //nolint:errcheck // the stopped store's error
	}
	fault.SetHook(nil)
	sh2, err := StartShard(spec)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { sh2.Close() })
	wg.Wait()
	for i, m := range out {
		if m.err != nil {
			t.Fatalf("mail %d: %d attempts, %v", i, m.attempts, m.err)
		}
	}
	return out, sh2
}

// landedMidStorm fails the test unless some mails got a 250 at once and
// some needed a retry.
func landedMidStorm(t *testing.T, out []outageMail) {
	t.Helper()
	retried := 0
	for _, m := range out {
		if m.attempts > 1 {
			retried++
		}
	}
	if retried == 0 || retried == len(out) {
		t.Fatalf("%d of %d mails needed a retry: the fault did not land mid-storm", retried, len(out))
	}
}

// copies counts each body in each of the node's mailboxes, and fails the
// test on a mail from the null sender (a DSN).
func copies(t *testing.T, sh *Shard) map[string]int {
	t.Helper()
	got := map[string]int{}
	for i := 0; i < users; i++ {
		box := fmt.Sprintf("user%04d", i)
		ids, err := sh.Store.List(box)
		if err != nil {
			t.Fatalf("list %s: %v", box, err)
		}
		for _, id := range ids {
			body, err := sh.Store.Read(box, id)
			if err != nil {
				t.Fatalf("read %s/%s: %v", box, id, err)
			}
			if strings.Contains(string(body), "MAILER-DAEMON") {
				t.Fatalf("%s holds a DSN: %q", box, body)
			}
			got[box+"\x00"+string(body)]++
		}
	}
	return got
}

// TestStoreOutageSendersHoldTheMail: a node whose store fails answers
// 451 and keeps nothing, and the senders' own queues hold the mail. After
// a power cut and a restart every mail is stored exactly once — the ones
// that got a 250 before the fault, and the ones answered 4xx once their
// retry got through — and no DSN exists.
func TestStoreOutageSendersHoldTheMail(t *testing.T) {
	out, sh := storeOutage(t, true)
	got := copies(t, sh)
	for i, m := range out {
		if c := got[m.box+"\x00"+m.body]; c != 1 {
			t.Fatalf("mail %d (%d attempts) is in %s %d times, want once", i, m.attempts, m.box, c)
		}
	}
	if len(got) != len(out) {
		t.Fatalf("mailboxes hold %d distinct mails, %d were sent", len(got), len(out))
	}
	landedMidStorm(t, out)
}

// TestStoreOutageRestartWithoutPowerCut: the same outage ended by Close
// instead of a power cut. A mail that got a 250 is stored exactly once. A
// mail answered 4xx is stored at least once, by its retry, and at most
// twice: a failed commit whose log write reached the disk is replayed by
// the restart under its first id, and the retry stores it again under a
// fresh one — RFC 1047's duplicate, never a loss.
func TestStoreOutageRestartWithoutPowerCut(t *testing.T) {
	out, sh := storeOutage(t, false)
	got := copies(t, sh)
	dups := 0
	for i, m := range out {
		c := got[m.box+"\x00"+m.body]
		if c == 2 {
			dups++
		}
		if m.attempts == 1 && c != 1 || c < 1 || c > 2 {
			t.Fatalf("mail %d (%d attempts) is in %s %d times", i, m.attempts, m.box, c)
		}
	}
	if len(got) != len(out) {
		t.Fatalf("mailboxes hold %d distinct mails, %d were sent", len(got), len(out))
	}
	landedMidStorm(t, out)
	t.Logf("%d of %d mails stored twice", dups, len(out))
}
