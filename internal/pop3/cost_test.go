package pop3

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fsim"
	"repro/internal/mailstore"
)

// countingStore counts the calls a session makes on the store contract,
// records the ids it is asked to delete, and can be told to fail Delete.
type countingStore struct {
	mailstore.Store
	stats, lists, reads, deletes atomic.Int64
	deletedIDs                   []string
	deleteErr                    error
}

func (c *countingStore) Stat(box string) ([]mailstore.MailInfo, error) {
	c.stats.Add(1)
	return c.Store.Stat(box)
}

func (c *countingStore) List(box string) ([]string, error) {
	c.lists.Add(1)
	return c.Store.List(box)
}

func (c *countingStore) Read(box, id string) ([]byte, error) {
	c.reads.Add(1)
	return c.Store.Read(box, id)
}

func (c *countingStore) Delete(box, id string) error {
	c.deletes.Add(1)
	c.deletedIDs = append(c.deletedIDs, id)
	if c.deleteErr != nil {
		return c.deleteErr
	}
	return c.Store.Delete(box, id)
}

// scriptConn is the server's side of a connection whose client is the
// test: it counts Write calls and keeps what was written.
type scriptConn struct {
	out    bytes.Buffer
	writes int
}

func (c *scriptConn) Read([]byte) (int, error) { return 0, io.EOF }
func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

// run dispatches one command and returns what the server wrote for it
// and in how many writes.
func (c *scriptConn) run(t testing.TB, s *session, line string) (reply string, writes int) {
	t.Helper()
	c.out.Reset()
	c.writes = 0
	if _, err := s.dispatch(splitCommand(line)); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return c.out.String(), c.writes
}

// bigBox returns an MFS store whose mailbox "big" holds n mails of
// distinct sizes, a third of them shared with "other".
func bigBox(t testing.TB, n int) *mailstore.MFS {
	t.Helper()
	store, err := mailstore.NewMFS(fsim.NewMem(costmodel.FSModel{}), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for i := 0; i < n; i++ {
		rcpts := []string{"big"}
		if i%3 == 0 {
			rcpts = []string{"big", "other"}
		}
		if err := store.Deliver(fmt.Sprintf("m%03d", i), rcpts, make([]byte, 1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func newTestSession(t testing.TB, store mailstore.Store) (*session, *scriptConn) {
	t.Helper()
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	conn := &scriptConn{}
	return srv.newSession(conn), conn
}

// TestPOP3ListingCost pins what a session costs the store and the
// socket: one Stat at PASS and nothing else for STAT/LIST/UIDL, one Read
// per RETR, one Delete per staged message at QUIT, a listing flushed once.
func TestPOP3ListingCost(t *testing.T) {
	const n = 200
	store := &countingStore{Store: bigBox(t, n)}
	s, conn := newTestSession(t, store)

	octets := 0
	for i := 0; i < n; i++ {
		octets += 1000 + i
	}
	for _, step := range []struct {
		cmd, reply string
	}{
		{"USER big", "+OK user accepted, send PASS\r\n"},
		{"PASS x", "+OK maildrop has 200 messages\r\n"},
		{"STAT", fmt.Sprintf("+OK %d %d\r\n", n, octets)},
	} {
		if got, _ := conn.run(t, s, step.cmd); got != step.reply {
			t.Fatalf("%s = %q, want %q", step.cmd, got, step.reply)
		}
	}

	listing, writes := conn.run(t, s, "LIST")
	lines := strings.Split(listing, "\r\n")
	if len(lines) != n+3 || lines[0] != fmt.Sprintf("+OK %d messages (%d octets)", n, octets) ||
		lines[1] != "1 1000" || lines[n] != "200 1199" || lines[n+1] != "." || lines[n+2] != "" {
		t.Fatalf("LIST = %q … %q (%d lines)", lines[0], lines[len(lines)-2], len(lines))
	}
	if writes > 2 {
		t.Fatalf("a %d-line LIST took %d writes, want at most 2", n, writes)
	}
	listing, writes = conn.run(t, s, "UIDL")
	lines = strings.Split(listing, "\r\n")
	if len(lines) != n+3 || lines[0] != "+OK unique-id listing" || lines[3] != "3 m002" || lines[n+1] != "." {
		t.Fatalf("UIDL = %q … (%d lines)", lines[0], len(lines))
	}
	if writes > 2 {
		t.Fatalf("a %d-line UIDL took %d writes, want at most 2", n, writes)
	}
	for _, step := range []struct{ cmd, prefix string }{
		{"LIST 3", "+OK 3 1002\r\n"},
		{"UIDL 3", "+OK 3 m002\r\n"},
		{"RETR 3", "+OK 1002 octets\r\n"},
		{"DELE 1", "+OK message 1 deleted\r\n"},
		{"STAT", fmt.Sprintf("+OK %d %d\r\n", n-1, octets-1000)},
		{"QUIT", "+OK bye\r\n"},
	} {
		if got, _ := conn.run(t, s, step.cmd); !strings.HasPrefix(got, step.prefix) {
			t.Fatalf("%s = %q, want prefix %q", step.cmd, got, step.prefix)
		}
	}
	if st, rd, del, ls := store.stats.Load(), store.reads.Load(), store.deletes.Load(), store.lists.Load(); st != 1 || rd != 1 || del != 1 || ls != 0 {
		t.Fatalf("session made %d Stat, %d Read, %d Delete, %d List calls; want 1, 1, 1, 0", st, rd, del, ls)
	}

	// The listing itself allocates nothing per message.
	s, conn = newTestSession(t, store)
	conn.run(t, s, "USER big")
	conn.run(t, s, "PASS x")
	allocs := testing.AllocsPerRun(20, func() {
		conn.out.Reset()
		s.dispatch("LIST", "") //nolint:errcheck // the buffer cannot fail
	})
	if allocs > 8 {
		t.Fatalf("LIST on %d messages allocates %.0f objects, want at most 8", n, allocs)
	}
}

// TestQuitReportsFailedDelete: RFC 1939 §6 — when the UPDATE state cannot
// remove a message marked deleted, QUIT answers -ERR. A message that is
// already gone is removed as far as the client is concerned.
func TestQuitReportsFailedDelete(t *testing.T) {
	for _, tc := range []struct {
		name      string
		deleteErr error
		reply     string
	}{
		{"store fails", errors.New("disk on fire"), "-ERR some deleted messages not removed\r\n"},
		{"already gone", fmt.Errorf("wrapped: %w", mailstore.ErrNotFound), "+OK bye\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &countingStore{Store: bigBox(t, 5), deleteErr: tc.deleteErr}
			s, conn := newTestSession(t, store)
			for _, cmd := range []string{"USER big", "PASS x", "DELE 4", "DELE 2"} {
				conn.run(t, s, cmd)
			}
			if got, _ := conn.run(t, s, "QUIT"); got != tc.reply {
				t.Fatalf("QUIT = %q, want %q", got, tc.reply)
			}
			if got := store.deletes.Load(); got != 2 {
				t.Fatalf("QUIT tried %d deletes, want 2", got)
			}
			if got := s.srv.Stats().Deleted; got != 0 {
				t.Fatalf("Deleted counter = %d after failed deletes", got)
			}
		})
	}
}

// TestQuitDeletesInMessageOrder: staged deletions reach the store in
// message order whatever order DELE came in.
func TestQuitDeletesInMessageOrder(t *testing.T) {
	store := &countingStore{Store: bigBox(t, 9)}
	s, conn := newTestSession(t, store)
	for _, cmd := range []string{"USER big", "PASS x", "DELE 7", "DELE 2", "DELE 9", "DELE 4", "QUIT"} {
		conn.run(t, s, cmd)
	}
	if got := strings.Join(store.deletedIDs, " "); got != "m001 m003 m006 m008" {
		t.Fatalf("delete order = %s", got)
	}
}

// tree lists every path under dir.
func tree(t testing.TB, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.Walk(dir, func(p string, _ os.FileInfo, err error) error {
		paths = append(paths, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestUserNameTraversal: a USER name is spliced into a file path by
// every store, so a name that is not one path element is refused before
// it reaches one. The store's root sits four levels below the directory
// the test watches, which is where "../../../../escaped" would land.
func TestUserNameTraversal(t *testing.T) {
	parent := t.TempDir()
	root := filepath.Join(parent, "srv", "mail")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := mailstore.NewMFS(fsim.NewOS(root), "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Deliver("m1", []string{"alice"}, []byte("hello\r\n")); err != nil {
		t.Fatal(err)
	}
	before := tree(t, parent)

	s, conn := newTestSession(t, store)
	for _, name := range []string{
		"../../../../escaped", "../alice", "..", ".", "a/b", `a\b`, `..\..\escaped`,
		"a\x00b", strings.Repeat("u", 256),
	} {
		if got, _ := conn.run(t, s, "USER "+name); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("USER %q = %q", name, got)
		}
		if got, _ := conn.run(t, s, "PASS x"); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("PASS after refused USER %q = %q", name, got)
		}
	}
	// A well-formed name that has no mailbox logs in and still creates
	// nothing.
	conn.run(t, s, "USER nobody-yet")
	if got, _ := conn.run(t, s, "PASS x"); got != "+OK maildrop has 0 messages\r\n" {
		t.Fatalf("PASS for an unknown user = %q", got)
	}
	if after := tree(t, parent); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("files changed:\nbefore %v\nafter  %v", before, after)
	}
}

// TestLoginCreatesNoMailbox: unauthenticated logins for users that have
// no mail must not cost the store files or open handles.
func TestLoginCreatesNoMailbox(t *testing.T) {
	fs := fsim.NewMem(costmodel.FSModel{})
	store, err := mailstore.NewMFS(fs, "mfs")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Deliver("m1", []string{"alice", "bob"}, []byte("hello\r\n")); err != nil {
		t.Fatal(err)
	}
	files, open := fs.List("mfs/boxes/"), store.Store().Stats().OpenMailboxes
	for i := 0; i < 1000; i++ {
		s, conn := newTestSession(t, store)
		conn.run(t, s, fmt.Sprintf("USER stranger%04d", i))
		if got, _ := conn.run(t, s, "PASS x"); got != "+OK maildrop has 0 messages\r\n" {
			t.Fatalf("PASS = %q", got)
		}
		if got, _ := conn.run(t, s, "STAT"); got != "+OK 0 0\r\n" {
			t.Fatalf("STAT = %q", got)
		}
		conn.run(t, s, "QUIT")
	}
	if got := fs.List("mfs/boxes/"); len(got) != len(files) {
		t.Fatalf("1000 logins grew boxes/ from %d to %d files", len(files), len(got))
	}
	if got := store.Store().Stats().OpenMailboxes; got != open {
		t.Fatalf("1000 logins grew the open-mailbox table from %d to %d", open, got)
	}
}

// FuzzPOP3Command feeds arbitrary command lines to one session over a
// three-message store: no panic, every response starts +OK or -ERR, and
// no command creates a file.
func FuzzPOP3Command(f *testing.F) {
	for _, seed := range []string{
		"USER alice\nPASS x\nSTAT\nLIST\nUIDL\nRETR 2\nDELE 1\nRSET\nDELE 3\nQUIT",
		"USER ../../../../escaped\nPASS x\nLIST",
		"PASS x\nSTAT\nLIST 1\nNOOP\nXYZZY",
		"USER alice\nPASS x\nLIST 0\nLIST 4\nUIDL -1\nRETR 99999999999999999999\nDELE 2\nDELE 2\nRETR 2",
		"user alice\npass x\nlist  2 \nuidl\t1\nretr 1 2",
		"USER a\x00b\nUSER \nUSER alice\nUSER bob\nPASS x\nPASS y",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		fs := fsim.NewMem(costmodel.FSModel{})
		store, err := mailstore.NewMFS(fs, "mfs")
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		for i, rcpts := range [][]string{{"alice"}, {"alice", "bob"}, {"alice"}} {
			body := fmt.Sprintf("Subject: %d\r\n\r\n.dot\r\nbody %d\r\n", i, i)
			if err := store.Deliver(fmt.Sprintf("m%d", i+1), rcpts, []byte(body)); err != nil {
				t.Fatal(err)
			}
		}
		files := strings.Join(fs.List(""), "\n")
		s, conn := newTestSession(t, store)
		for _, line := range strings.Split(script, "\n") {
			conn.out.Reset()
			quit, err := s.dispatch(splitCommand(strings.TrimSuffix(line, "\r")))
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			if got := conn.out.String(); !strings.HasPrefix(got, "+OK") && !strings.HasPrefix(got, "-ERR") || !strings.HasSuffix(got, "\r\n") {
				t.Fatalf("%q answered %q", line, got)
			}
			if quit {
				break
			}
		}
		if got := strings.Join(fs.List(""), "\n"); got != files {
			t.Fatalf("the session changed the store's files:\nbefore %s\nafter  %s", files, got)
		}
	})
}
