package delivery

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/mailstore"
	"repro/internal/mfs"
	"repro/internal/queue"
	"repro/internal/spool"
)

func newEnv(t *testing.T) (*access.DB, mailstore.Store, *Agent) {
	t.Helper()
	db := access.NewDB("dept.test")
	for _, u := range []string{"alice@dept.test", "bob@dept.test"} {
		if err := db.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	store, err := mailstore.NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	return db, store, NewAgent(db, store)
}

func TestDeliverSingle(t *testing.T) {
	_, store, agent := newEnv(t)
	item := &queue.Item{ID: "m1", Sender: "s@x.test", Rcpts: []string{"alice@dept.test"}, Data: []byte("hi")}
	if err := agent.Deliver(item); err != nil {
		t.Fatal(err)
	}
	got, err := store.Read("alice", "m1")
	if err != nil || string(got) != "hi" {
		t.Fatalf("read = %q, %v", got, err)
	}
	st := agent.Stats()
	if st.Mails != 1 || st.RcptDeliveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliverMultiRecipient(t *testing.T) {
	_, store, agent := newEnv(t)
	item := &queue.Item{ID: "m1", Rcpts: []string{"alice@dept.test", "bob@dept.test"}, Data: []byte("x")}
	if err := agent.Deliver(item); err != nil {
		t.Fatal(err)
	}
	for _, box := range []string{"alice", "bob"} {
		if _, err := store.Read(box, "m1"); err != nil {
			t.Fatalf("%s: %v", box, err)
		}
	}
}

func TestAliasesDeduplicated(t *testing.T) {
	db, store, agent := newEnv(t)
	db.AddAlias("postmaster@dept.test", "alice@dept.test")
	item := &queue.Item{
		ID:    "m1",
		Rcpts: []string{"alice@dept.test", "postmaster@dept.test"},
		Data:  []byte("x"),
	}
	if err := agent.Deliver(item); err != nil {
		t.Fatal(err)
	}
	ids, err := store.List("alice")
	if err != nil || len(ids) != 1 {
		t.Fatalf("alice got %v mails (%v), want exactly 1", ids, err)
	}
	if agent.Stats().RcptDeliveries != 1 {
		t.Fatalf("stats = %+v", agent.Stats())
	}
}

func TestUnresolvableRecipientsDropped(t *testing.T) {
	_, store, agent := newEnv(t)
	item := &queue.Item{
		ID:    "m1",
		Rcpts: []string{"ghost@dept.test", "alice@dept.test"},
		Data:  []byte("x"),
	}
	if err := agent.Deliver(item); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Read("alice", "m1"); err != nil {
		t.Fatal(err)
	}
	st := agent.Stats()
	if st.DroppedRcpts != 1 || st.RcptDeliveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAllRecipientsUnresolvableSucceeds(t *testing.T) {
	// A permanently undeliverable mail must not bounce around the
	// deferred queue forever.
	_, _, agent := newEnv(t)
	item := &queue.Item{ID: "m1", Rcpts: []string{"ghost@dept.test"}, Data: []byte("x")}
	if err := agent.Deliver(item); err != nil {
		t.Fatal(err)
	}
	st := agent.Stats()
	if st.Mails != 0 || st.DroppedRcpts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliverThroughQueue(t *testing.T) {
	_, store, agent := newEnv(t)
	m, err := queue.NewManager(queue.Config{Deliverer: agent})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Enqueue("s@x.test", []string{"bob@dept.test"}, []byte("queued"))
	if err != nil {
		t.Fatal(err)
	}
	if !m.WaitIdle(2_000_000_000) {
		t.Fatal("queue never idle")
	}
	got, err := store.Read("bob", id)
	if err != nil || string(got) != "queued" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

// hamBody fills buf with the seq-th test mail: a header naming it, then
// filler that differs from mail to mail.
func hamBody(buf []byte, seq int) []byte {
	n := copy(buf, fmt.Sprintf("Subject: ham %06d\r\n\r\n", seq))
	for i := n; i < len(buf); i++ {
		buf[i] = byte('a' + (seq+i)%26)
	}
	return buf
}

// TestHamPathAllocatesNoBody drives the ham path behind the SMTP dialog —
// queue.Manager, its spool, this agent, a write-ahead-logged MFS, on real
// files — and bounds the heap bytes allocated per mail below anything a
// body-sized buffer would cost: the body lives in one pooled spool frame
// from Enqueue to the mailbox commit and the committer stages it in a
// buffer it keeps. Every mailbox must then read back byte for byte.
func TestHamPathAllocatesNoBody(t *testing.T) {
	const mails, warmup, size, users, window = 2000, 200, 4096, 8, 64
	fs := fsim.NewOS(t.TempDir())
	db := access.NewDB("dept.test")
	rcpts := make([][]string, users)
	for u := range rcpts {
		rcpts[u] = []string{fmt.Sprintf("user%d@dept.test", u)}
		if err := db.AddUser(rcpts[u][0]); err != nil {
			t.Fatal(err)
		}
	}
	store, err := mailstore.NewMFS(fs, "mfs", mfs.WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	qm, err := queue.NewManager(queue.Config{
		Deliverer:   NewAgent(db, store),
		Store:       spool.New(fs, "queue"),
		ActiveLimit: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer qm.Close()

	ids := make([]string, warmup+mails)
	buf := make([]byte, size)
	send := func(from, to int) {
		for seq := from; seq < to; seq++ {
			id, err := qm.Enqueue("s@remote.test", rcpts[seq%users], hamBody(buf, seq))
			if err != nil {
				t.Fatal(err)
			}
			ids[seq] = id
			if seq%window == window-1 && !qm.WaitIdle(30*time.Second) {
				t.Fatal("queue never idle")
			}
		}
		if !qm.WaitIdle(30 * time.Second) {
			t.Fatal("queue never idle")
		}
	}
	send(0, warmup) // mailboxes open, pools and index maps warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(warmup, warmup+mails)
	runtime.ReadMemStats(&after)
	if st := qm.Stats(); st.Delivered != warmup+mails || st.Deferred != 0 {
		t.Fatalf("queue stats = %+v", st)
	}
	perMail := (after.TotalAlloc - before.TotalAlloc) / mails
	t.Logf("%d B and %.1f objects allocated per %d-byte mail",
		perMail, float64(after.Mallocs-before.Mallocs)/mails, size)
	if perMail >= 2048 && !raceEnabled {
		t.Errorf("ham path allocates %d B per %d-byte mail, want < 2048: a body-sized buffer is allocated per mail", perMail, size)
	}

	want := make([]byte, size)
	for seq, id := range ids {
		got, err := store.Read(fmt.Sprintf("user%d", seq%users), id)
		if err != nil || !bytes.Equal(got, hamBody(want, seq)) {
			t.Fatalf("mail %d (%s) read back wrong (%d bytes, %v)", seq, id, len(got), err)
		}
	}
}

// TestInlineEnqueueAllocs: on a healthy store Enqueue delivers a mail on the
// caller's goroutine — through this agent into a write-ahead-logged MFS —
// before it returns. A 1-recipient mail then allocates its queue id and its
// MFS index entry and nothing else: no queue item, no spool frame, no copy of
// the recipient list, no mailbox list and no per-mail duplicate set.
func TestInlineEnqueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	db := access.NewDB("dept.test")
	if err := db.AddUser("alice@dept.test"); err != nil {
		t.Fatal(err)
	}
	store, err := mailstore.NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs", mfs.WithSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	qm, err := queue.NewManager(queue.Config{Deliverer: NewAgent(db, store)})
	if err != nil {
		t.Fatal(err)
	}
	defer qm.Close()
	rcpts := []string{"alice@dept.test"}
	body := hamBody(make([]byte, 4096), 0)
	enqueue := func() {
		if _, err := qm.Enqueue("s@remote.test", rcpts, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		enqueue() // mailbox open, pools warm
	}
	allocs := testing.AllocsPerRun(2000, enqueue)
	t.Logf("%.2f objects allocated per inline 1-recipient Enqueue", allocs)
	if allocs > 2 {
		t.Errorf("inline Enqueue allocates %.2f objects per mail, want at most 2 (queue id, index entry)", allocs)
	}
	if st := qm.Stats(); st.Delivered != st.Enqueued || qm.LaneDepth(spool.LaneActive) != 0 {
		t.Fatalf("stats %+v: a healthy store's mail went through the spool", st)
	}
}
