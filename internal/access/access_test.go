package access

import (
	"fmt"
	"testing"
)

func TestAddUserAndValid(t *testing.T) {
	db := NewDB("dept.test")
	if err := db.AddUser("alice@dept.test"); err != nil {
		t.Fatal(err)
	}
	if !db.Valid("alice@dept.test") {
		t.Fatal("registered user invalid")
	}
	if !db.Valid("ALICE@DEPT.TEST") {
		t.Fatal("lookup should be case-insensitive")
	}
	if db.Valid("bob@dept.test") {
		t.Fatal("unregistered user valid")
	}
	if db.Valid("alice@other.test") {
		t.Fatal("foreign domain valid")
	}
}

func TestAddUserErrors(t *testing.T) {
	db := NewDB("dept.test")
	if err := db.AddUser("alice@elsewhere.test"); err == nil {
		t.Fatal("non-local domain accepted")
	}
	if err := db.AddUser("not-an-address"); err == nil {
		t.Fatal("malformed address accepted")
	}
}

func TestAliases(t *testing.T) {
	db := NewDB("dept.test")
	db.AddUser("alice@dept.test")
	if err := db.AddAlias("postmaster@dept.test", "alice@dept.test"); err != nil {
		t.Fatal(err)
	}
	got, ok := db.Resolve("postmaster@dept.test")
	if !ok || got != "alice@dept.test" {
		t.Fatalf("Resolve = %q, %v", got, ok)
	}
	// Chained alias.
	db.AddAlias("root@dept.test", "postmaster@dept.test")
	if got, ok := db.Resolve("root@dept.test"); !ok || got != "alice@dept.test" {
		t.Fatalf("chained Resolve = %q, %v", got, ok)
	}
	// Alias to a non-existent target is invalid at lookup time.
	db.AddAlias("void@dept.test", "ghost@dept.test")
	if db.Valid("void@dept.test") {
		t.Fatal("alias to missing mailbox valid")
	}
}

func TestAliasLoopTerminates(t *testing.T) {
	db := NewDB("dept.test")
	db.AddAlias("a@dept.test", "b@dept.test")
	db.AddAlias("b@dept.test", "a@dept.test")
	if db.Valid("a@dept.test") {
		t.Fatal("alias loop resolved as valid")
	}
}

func TestAliasErrors(t *testing.T) {
	db := NewDB("dept.test")
	if err := db.AddAlias("x@foreign.test", "y@dept.test"); err == nil {
		t.Fatal("alias in foreign domain accepted")
	}
	if err := db.AddAlias("bad", "y@dept.test"); err == nil {
		t.Fatal("malformed alias accepted")
	}
}

func TestAddDomainIdempotent(t *testing.T) {
	db := NewDB()
	db.AddDomain("d.test")
	db.AddUser("u@d.test")
	db.AddDomain("d.test") // must not wipe users
	if !db.Valid("u@d.test") {
		t.Fatal("AddDomain wiped existing users")
	}
}

func TestPopulate(t *testing.T) {
	db := NewDB()
	if err := Populate(db, "dept.test", 400); err != nil {
		t.Fatal(err)
	}
	if !db.Valid("user0000@dept.test") || !db.Valid("user0399@dept.test") {
		t.Fatal("populated users invalid")
	}
	if db.Valid("user0400@dept.test") {
		t.Fatal("out-of-range user valid")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDB("d.test")
	done := make(chan bool)
	go func() {
		for i := 0; i < 500; i++ {
			db.AddUser(fmt.Sprintf("w%d@d.test", i))
		}
		done <- true
	}()
	for i := 0; i < 500; i++ {
		db.Valid(fmt.Sprintf("w%d@d.test", i))
	}
	<-done
	for i := 0; i < 500; i++ {
		if !db.Valid(fmt.Sprintf("w%d@d.test", i)) {
			t.Fatalf("w%d@d.test lost", i)
		}
	}
}

func TestValidBytesMatchesValid(t *testing.T) {
	db := NewDB("d.test")
	db.AddUser("user@d.test")
	db.AddAlias("alias@d.test", "user@d.test")
	cases := []string{
		"user@d.test", "USER@D.TEST", " user@d.test ", "alias@d.test",
		"ALIAS@d.test", "ghost@d.test", "user@other.test", "user",
		"user@", "@d.test", "", "üser@d.test", "user@d.tesT",
	}
	for _, addr := range cases {
		if got, want := db.ValidBytes([]byte(addr)), db.Valid(addr); got != want {
			t.Errorf("ValidBytes(%q) = %v, Valid = %v", addr, got, want)
		}
	}
}

func TestValidBytesZeroAlloc(t *testing.T) {
	db := NewDB("d.test")
	db.AddUser("user@d.test")
	hit := []byte("USER@D.TEST")
	miss := []byte("ghost@d.test")
	allocs := testing.AllocsPerRun(1000, func() {
		if !db.ValidBytes(hit) {
			t.Fatal("hit missed")
		}
		if db.ValidBytes(miss) {
			t.Fatal("miss hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("ValidBytes allocates %.1f times per pair, want 0", allocs)
	}
}
