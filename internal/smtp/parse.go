package smtp

import (
	"bytes"
	"fmt"
	"strings"
)

// Verb is an SMTP command verb.
type Verb string

// The verbs the server understands.
const (
	VerbHELO Verb = "HELO"
	VerbEHLO Verb = "EHLO"
	VerbMAIL Verb = "MAIL"
	VerbRCPT Verb = "RCPT"
	VerbDATA Verb = "DATA"
	VerbBDAT Verb = "BDAT"
	VerbRSET Verb = "RSET"
	VerbNOOP Verb = "NOOP"
	VerbVRFY Verb = "VRFY"
	VerbQUIT Verb = "QUIT"
)

// Command is one parsed SMTP command line. Arg and Addr are views into
// the line passed to ParseCommand: they are valid until the caller's
// line buffer is reused (for Conn.ReadLine, until the next read). The
// session copies what it keeps, so the hot path never allocates.
type Command struct {
	Verb Verb
	// Arg is the raw argument text after the verb.
	Arg []byte
	// Addr is the parsed mailbox for MAIL/RCPT/VRFY.
	Addr []byte
	// Params is the raw ESMTP parameter text after the path for
	// MAIL/RCPT (e.g. "SIZE=1024 XTRACE=..."), empty when absent.
	Params []byte
	// Size and Last are a BDAT chunk's octet count (capped at
	// MaxChunkSize) and its LAST marker (RFC 3030).
	Size int
	Last bool
}

// MaxChunkSize caps the size a BDAT command parses to, past any limit.
const MaxChunkSize = 1 << 40

// ErrSyntax reports an unparseable command argument. Line is optional
// detail: the hot-path parser deliberately leaves it empty, because
// malformed commands are attacker-controlled input and capturing the
// offending line would allocate per bad command.
type ErrSyntax struct{ Line string }

func (e *ErrSyntax) Error() string {
	if e.Line == "" {
		return "smtp: syntax error"
	}
	return fmt.Sprintf("smtp: syntax error in %q", e.Line)
}

// ErrUnknownVerb reports an unrecognized command verb. VerbText is
// optional detail, empty on the hot path for the same reason as
// ErrSyntax.Line.
type ErrUnknownVerb struct{ VerbText string }

func (e *ErrUnknownVerb) Error() string {
	if e.VerbText == "" {
		return "smtp: unknown command"
	}
	return fmt.Sprintf("smtp: unknown command %q", e.VerbText)
}

// Shared error instances for the hot path: bad commands cost no heap
// traffic, only a pointer comparison at the caller.
var (
	errSyntax      = &ErrSyntax{}
	errUnknownVerb = &ErrUnknownVerb{}
)

// Verb keys: the first four bytes OR 0x20, packed big-endian. Every verb
// is exactly four ASCII letters, and c|0x20 maps each letter to its
// lowercase form without colliding with any other byte value, so the
// switch below is an exact case-insensitive match with no ToUpper copy.
const (
	keyHELO = 'h'<<24 | 'e'<<16 | 'l'<<8 | 'o'
	keyEHLO = 'e'<<24 | 'h'<<16 | 'l'<<8 | 'o'
	keyMAIL = 'm'<<24 | 'a'<<16 | 'i'<<8 | 'l'
	keyRCPT = 'r'<<24 | 'c'<<16 | 'p'<<8 | 't'
	keyDATA = 'd'<<24 | 'a'<<16 | 't'<<8 | 'a'
	keyBDAT = 'b'<<24 | 'd'<<16 | 'a'<<8 | 't'
	keyRSET = 'r'<<24 | 's'<<16 | 'e'<<8 | 't'
	keyNOOP = 'n'<<24 | 'o'<<16 | 'o'<<8 | 'p'
	keyVRFY = 'v'<<24 | 'r'<<16 | 'f'<<8 | 'y'
	keyQUIT = 'q'<<24 | 'u'<<16 | 'i'<<8 | 't'
)

// matchVerb resolves a raw verb token to its canonical Verb constant
// without copying or uppercasing; "" means unrecognized.
func matchVerb(v []byte) Verb {
	if len(v) != 4 {
		return ""
	}
	k := uint32(v[0]|0x20)<<24 | uint32(v[1]|0x20)<<16 | uint32(v[2]|0x20)<<8 | uint32(v[3]|0x20)
	switch k {
	case keyHELO:
		return VerbHELO
	case keyEHLO:
		return VerbEHLO
	case keyMAIL:
		return VerbMAIL
	case keyRCPT:
		return VerbRCPT
	case keyDATA:
		return VerbDATA
	case keyBDAT:
		return VerbBDAT
	case keyRSET:
		return VerbRSET
	case keyNOOP:
		return VerbNOOP
	case keyVRFY:
		return VerbVRFY
	case keyQUIT:
		return VerbQUIT
	}
	return ""
}

// ParseCommand parses one command line (without CRLF). It allocates
// nothing: the returned Command's Arg/Addr fields are sub-slices of
// line, and parse errors are shared instances. On error the Command's
// Verb is only set when the verb itself was recognized.
func ParseCommand(line []byte) (Command, error) {
	trimmed := bytes.TrimRight(line, " \t")
	verbText := trimmed
	var arg []byte
	if i := bytes.IndexByte(trimmed, ' '); i >= 0 {
		verbText, arg = trimmed[:i], bytes.TrimSpace(trimmed[i+1:])
	}
	verb := matchVerb(verbText)
	cmd := Command{Verb: verb, Arg: arg}
	switch verb {
	case VerbHELO, VerbEHLO:
		if len(arg) == 0 {
			return cmd, errSyntax
		}
		return cmd, nil
	case VerbMAIL:
		addr, params, err := parsePath(arg, "FROM")
		if err != nil {
			return cmd, err
		}
		cmd.Addr, cmd.Params = addr, params
		return cmd, nil
	case VerbRCPT:
		addr, params, err := parsePath(arg, "TO")
		if err != nil {
			return cmd, err
		}
		cmd.Params = params
		if cmd.Addr = addr; len(addr) == 0 {
			// RCPT TO:<> is never valid (null path is sender-only).
			return cmd, errSyntax
		}
		return cmd, nil
	case VerbVRFY:
		if len(arg) == 0 {
			return cmd, errSyntax
		}
		cmd.Addr = bytes.Trim(arg, "<>")
		return cmd, nil
	case VerbBDAT:
		// "BDAT" SP chunk-size [SP "LAST"], the size in decimal digits.
		i := 0
		for ; i < len(arg) && '0' <= arg[i] && arg[i] <= '9'; i++ {
			cmd.Size = min(cmd.Size*10+int(arg[i]-'0'), MaxChunkSize)
		}
		rest := arg[i:]
		if i == 0 || len(rest) > 0 && (rest[0] != ' ' || !equalFoldASCII(bytes.TrimLeft(rest, " "), "LAST")) {
			return cmd, errSyntax
		}
		cmd.Last = len(rest) > 0
		return cmd, nil
	case VerbDATA, VerbRSET, VerbNOOP, VerbQUIT:
		return cmd, nil
	default:
		return cmd, errUnknownVerb
	}
}

// parsePath parses "FROM:<addr> [params]" / "TO:<addr> [params]". The
// null reverse-path <> (bounce sender) parses to an empty slice. The
// returned address and parameter text are views into arg; parameters a
// session does not understand stay unparsed there and are dropped, so
// the wire protocol stays RFC-clean for any client.
func parsePath(arg []byte, keyword string) (addrOut, params []byte, err error) {
	n := len(keyword)
	if len(arg) <= n || !equalFoldASCII(arg[:n], keyword) || arg[n] != ':' {
		return nil, nil, errSyntax
	}
	rest := bytes.TrimSpace(arg[n+1:])
	// Split optional ESMTP parameters off the path.
	path := rest
	if i := bytes.IndexByte(rest, ' '); i >= 0 {
		path = rest[:i]
		params = bytes.TrimSpace(rest[i+1:])
	}
	if len(path) < 2 || path[0] != '<' || path[len(path)-1] != '>' {
		return nil, nil, errSyntax
	}
	addr := path[1 : len(path)-1]
	// Drop RFC 5321 source routes ("@relay:user@dom").
	if len(addr) > 0 && addr[0] == '@' {
		if i := bytes.LastIndexByte(addr, ':'); i >= 0 {
			addr = addr[i+1:]
		}
	}
	if len(addr) == 0 {
		return nil, params, nil
	}
	if !validAddress(addr) {
		return nil, nil, errSyntax
	}
	return addr, params, nil
}

// ParamValue scans ESMTP parameter text (space-separated KEY=value
// tokens, as in Command.Params) for key and returns its value as a view
// into params, or nil when absent. The match is ASCII-case-insensitive
// and the scan never allocates. key must be upper-case ASCII.
func ParamValue(params []byte, key string) []byte {
	for len(params) > 0 {
		tok := params
		if i := bytes.IndexByte(params, ' '); i >= 0 {
			tok, params = params[:i], bytes.TrimLeft(params[i+1:], " ")
		} else {
			params = nil
		}
		n := len(key)
		if len(tok) > n && tok[n] == '=' && equalFoldASCII(tok[:n], key) {
			return tok[n+1:]
		}
	}
	return nil
}

// equalFoldASCII reports whether b matches the ASCII string s
// case-insensitively. s must be upper-case ASCII letters only.
func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b[i] != s[i] && b[i]|0x20 != s[i]|0x20 {
			return false
		}
	}
	return true
}

// validAddress applies the minimal mailbox syntax check on a byte view:
// exactly one "@", non-empty local part and domain, no whitespace or
// control bytes.
func validAddress(addr []byte) bool {
	at := bytes.IndexByte(addr, '@')
	if at <= 0 || at == len(addr)-1 || bytes.IndexByte(addr[at+1:], '@') >= 0 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		if c := addr[i]; c <= ' ' || c == 127 {
			return false
		}
	}
	return true
}

// ValidateAddress applies the minimal mailbox syntax check the server
// needs: exactly one "@", non-empty local part and domain, no whitespace
// or control bytes.
func ValidateAddress(addr string) error {
	at := strings.IndexByte(addr, '@')
	if at <= 0 || at == len(addr)-1 || strings.IndexByte(addr[at+1:], '@') >= 0 {
		return &ErrSyntax{Line: addr}
	}
	for i := 0; i < len(addr); i++ {
		if c := addr[i]; c <= ' ' || c == 127 {
			return &ErrSyntax{Line: addr}
		}
	}
	return nil
}

// LocalPart returns the mailbox name before the "@".
func LocalPart(addr string) string {
	if i := strings.IndexByte(addr, '@'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// Domain returns the domain after the "@", lowercased.
func Domain(addr string) string {
	if i := strings.IndexByte(addr, '@'); i >= 0 {
		return strings.ToLower(addr[i+1:])
	}
	return ""
}
