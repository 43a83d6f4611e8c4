// Package access implements the mail server's local recipient and alias
// database — the table smtpd consults to decide whether a "RCPT TO"
// address exists (§2: "smtpd also queries the local access database to
// find if the recipients of the mails exist or not"). The answer to that
// query is what separates legitimate deliveries from the §4.1 bounces,
// and in the hybrid architecture it is the trust signal that triggers
// delegation.
package access

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/smtp"
)

// DB is the recipient database: the set of local domains, the mailboxes
// within them, and aliases (postfix's local_recipient_maps plus
// alias_maps). Safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	domains map[string]map[string]bool // domain -> set of local parts
	aliases map[string]string          // canonical addr -> canonical addr
}

// NewDB returns a database serving the given local domains.
func NewDB(localDomains ...string) *DB {
	db := &DB{
		domains: make(map[string]map[string]bool),
		aliases: make(map[string]string),
	}
	for _, d := range localDomains {
		db.domains[strings.ToLower(d)] = make(map[string]bool)
	}
	return db
}

func canonical(addr string) string { return strings.ToLower(strings.TrimSpace(addr)) }

// AddDomain registers an additional local domain.
func (db *DB) AddDomain(domain string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	d := strings.ToLower(domain)
	if _, ok := db.domains[d]; !ok {
		db.domains[d] = make(map[string]bool)
	}
}

// AddUser registers a mailbox. The address's domain must be local.
func (db *DB) AddUser(addr string) error {
	a := canonical(addr)
	if err := smtp.ValidateAddress(a); err != nil {
		return fmt.Errorf("access: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	users, ok := db.domains[smtp.Domain(a)]
	if !ok {
		return fmt.Errorf("access: %q is not a local domain", smtp.Domain(a))
	}
	users[smtp.LocalPart(a)] = true
	return nil
}

// AddAlias maps from to to. The target must already be a valid recipient
// (possibly itself an alias); chains are resolved at lookup with a depth
// bound.
func (db *DB) AddAlias(from, to string) error {
	f, t := canonical(from), canonical(to)
	for _, a := range []string{f, t} {
		if err := smtp.ValidateAddress(a); err != nil {
			return fmt.Errorf("access: %w", err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.domains[smtp.Domain(f)]; !ok {
		return fmt.Errorf("access: alias source domain %q not local", smtp.Domain(f))
	}
	db.aliases[f] = t
	return nil
}

// maxAliasDepth bounds alias chains; postfix similarly caps expansion to
// break loops.
const maxAliasDepth = 8

// Resolve canonicalizes addr, follows aliases, and reports whether the
// final target is an existing local mailbox. The returned address is the
// delivery target (the mailbox name is its local part).
func (db *DB) Resolve(addr string) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.resolveLocked(canonical(addr))
}

// resolveLocked is Resolve's body; the caller holds at least a read lock
// and passes an already-canonical address.
func (db *DB) resolveLocked(a string) (string, bool) {
	for i := 0; i <= maxAliasDepth; i++ {
		if users, ok := db.domains[smtp.Domain(a)]; ok && users[smtp.LocalPart(a)] {
			return a, true
		}
		next, ok := db.aliases[a]
		if !ok {
			return "", false
		}
		a = next
	}
	return "", false // alias loop or over-deep chain
}

// Valid reports whether addr resolves to an existing local mailbox — the
// smtpd RCPT check.
func (db *DB) Valid(addr string) bool {
	_, ok := db.Resolve(addr)
	return ok
}

// ValidBytes is Valid on a byte view, built for the server's
// zero-allocation RCPT path: the address is case-folded into a stack
// buffer and looked up with non-allocating map probes, so the trust
// decision for every probe a sinkhole workload throws costs no heap
// traffic. Addresses that are oversized or non-ASCII take the string
// path, whose Unicode canonicalization the fast path cannot reproduce.
func (db *DB) ValidBytes(addr []byte) bool {
	var buf [256]byte
	// Trim the blanks canonical() would.
	start, end := 0, len(addr)
	for start < end && (addr[start] == ' ' || addr[start] == '\t') {
		start++
	}
	for end > start && (addr[end-1] == ' ' || addr[end-1] == '\t') {
		end--
	}
	if end-start > len(buf) {
		return db.Valid(string(addr))
	}
	n := 0
	at := -1
	for i := start; i < end; i++ {
		c := addr[i]
		if c >= 0x80 {
			// Unicode addresses need ToLower's full folding.
			return db.Valid(string(addr))
		}
		if 'A' <= c && c <= 'Z' {
			c |= 0x20
		}
		if c == '@' && at < 0 {
			at = n
		}
		buf[n] = c
		n++
	}
	if at < 0 || at == n-1 {
		return false // no domain: never a local mailbox
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	// m[string(b)] map probes compile without allocating.
	if users, ok := db.domains[string(buf[at+1:n])]; ok && users[string(buf[:at])] {
		return true
	}
	next, ok := db.aliases[string(buf[:n])]
	if !ok {
		return false
	}
	// Alias chains are rare and their targets are already canonical
	// strings; follow them on the ordinary path.
	_, ok = db.resolveLocked(next)
	return ok
}

// Users returns the number of mailboxes across all local domains.
func (db *DB) Users() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, users := range db.domains {
		n += len(users)
	}
	return n
}

// Populate registers n mailboxes named user0000…user<n-1> under domain,
// the shape the workload generators and examples use (the paper's Univ
// server hosts "over 400 mailboxes").
func Populate(db *DB, domain string, n int) error {
	db.AddDomain(domain)
	for i := 0; i < n; i++ {
		if err := db.AddUser(fmt.Sprintf("user%04d@%s", i, domain)); err != nil {
			return err
		}
	}
	return nil
}
