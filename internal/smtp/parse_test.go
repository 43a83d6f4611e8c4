package smtp

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseCommandVerbs(t *testing.T) {
	cases := []struct {
		line string
		verb Verb
		addr string
		ok   bool
	}{
		{"HELO client.example", VerbHELO, "", true},
		{"helo client.example", VerbHELO, "", true},
		{"EHLO [192.0.2.1]", VerbEHLO, "", true},
		{"HELO", VerbHELO, "", false},
		{"MAIL FROM:<a@b.c>", VerbMAIL, "a@b.c", true},
		{"mail from:<a@b.c>", VerbMAIL, "a@b.c", true},
		{"MAIL FROM:<>", VerbMAIL, "", true}, // null reverse-path
		{"MAIL FROM:<a@b.c> SIZE=1000", VerbMAIL, "a@b.c", true},
		{"MAIL FROM:a@b.c", VerbMAIL, "", false},
		{"MAIL TO:<a@b.c>", VerbMAIL, "", false},
		{"RCPT TO:<u@d.com>", VerbRCPT, "u@d.com", true},
		{"RCPT TO:<@relay.example:u@d.com>", VerbRCPT, "u@d.com", true},
		{"RCPT TO:<>", VerbRCPT, "", false}, // null forward-path invalid
		{"RCPT FROM:<u@d.com>", VerbRCPT, "", false},
		{"DATA", VerbDATA, "", true},
		{"QUIT", VerbQUIT, "", true},
		{"RSET", VerbRSET, "", true},
		{"NOOP", VerbNOOP, "", true},
		{"VRFY user", VerbVRFY, "user", true},
		{"VRFY <u@d.com>", VerbVRFY, "u@d.com", true},
		{"VRFY", VerbVRFY, "", false},
		{"BDAT 86 LAST", VerbBDAT, "", true},
		{"bdat 0 last", VerbBDAT, "", true},
		{"BDAT 86", VerbBDAT, "", true},
		{"BDAT", VerbBDAT, "", false},
		{"BDAT -1", VerbBDAT, "", false},
		{"BDAT 86 FIRST", VerbBDAT, "", false},
		{"BOGUS arg", Verb(""), "", false},
		{"", Verb(""), "", false},
	}
	for _, c := range cases {
		cmd, err := ParseCommand([]byte(c.line))
		if c.ok {
			if err != nil {
				t.Errorf("ParseCommand(%q) = %v", c.line, err)
				continue
			}
			if cmd.Verb != c.verb || string(cmd.Addr) != c.addr {
				t.Errorf("ParseCommand(%q) = %+v, want verb %s addr %q", c.line, cmd, c.verb, c.addr)
			}
		} else if err == nil {
			t.Errorf("ParseCommand(%q) accepted", c.line)
		}
	}
}

func TestParseErrorTypes(t *testing.T) {
	_, err := ParseCommand([]byte("FROBNICATE now"))
	var unknown *ErrUnknownVerb
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want ErrUnknownVerb", err)
	}
	_, err = ParseCommand([]byte("MAIL oops"))
	var syn *ErrSyntax
	if !errors.As(err, &syn) {
		t.Fatalf("err = %v, want ErrSyntax", err)
	}
}

func TestParseErrorsFormatLazily(t *testing.T) {
	// The shared hot-path instances carry no captured text but still
	// produce a usable message; the detailed forms keep the old output.
	if msg := errSyntax.Error(); !strings.Contains(msg, "syntax") {
		t.Errorf("bare syntax error message = %q", msg)
	}
	if msg := errUnknownVerb.Error(); !strings.Contains(msg, "unknown") {
		t.Errorf("bare unknown-verb message = %q", msg)
	}
	if msg := (&ErrSyntax{Line: "MAIL oops"}).Error(); !strings.Contains(msg, `"MAIL oops"`) {
		t.Errorf("detailed syntax message = %q", msg)
	}
	if msg := (&ErrUnknownVerb{VerbText: "TURN"}).Error(); !strings.Contains(msg, `"TURN"`) {
		t.Errorf("detailed unknown-verb message = %q", msg)
	}
}

func TestMatchVerbFolding(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Verb
	}{
		{"HELO", VerbHELO}, {"helo", VerbHELO}, {"HeLo", VerbHELO},
		{"EHLO", VerbEHLO}, {"MAIL", VerbMAIL}, {"rcpt", VerbRCPT},
		{"DATA", VerbDATA}, {"bDaT", VerbBDAT}, {"RSET", VerbRSET}, {"NOOP", VerbNOOP},
		{"VRFY", VerbVRFY}, {"quit", VerbQUIT},
		// Non-letters must not fold into verbs: '(' is 'H'^0x60 away…
		{"HEL\x2f", ""}, {"H\x05LO", ""}, {"HEL", ""}, {"HELOX", ""},
		{"@#$%", ""}, {"", ""},
	} {
		if got := matchVerb([]byte(c.in)); got != c.want {
			t.Errorf("matchVerb(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestValidateAddress(t *testing.T) {
	good := []string{"a@b.c", "user.name@sub.domain.org", "x@y"}
	for _, a := range good {
		if err := ValidateAddress(a); err != nil {
			t.Errorf("ValidateAddress(%q) = %v", a, err)
		}
	}
	bad := []string{"", "nodomain", "@d.com", "u@", "a@b@c", "a b@c.d", "a@b\x01c"}
	for _, a := range bad {
		if err := ValidateAddress(a); err == nil {
			t.Errorf("ValidateAddress(%q) accepted", a)
		}
	}
}

func TestLocalPartDomain(t *testing.T) {
	if LocalPart("user@Dom.COM") != "user" {
		t.Error("LocalPart failed")
	}
	if Domain("user@Dom.COM") != "dom.com" {
		t.Error("Domain should lowercase")
	}
	if LocalPart("bare") != "bare" || Domain("bare") != "" {
		t.Error("address without @ mishandled")
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(line []byte) bool {
		ParseCommand(line) //nolint:errcheck // only checking for panics
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParsedAddressAlwaysValidProperty(t *testing.T) {
	// Property: any address ParseCommand returns passes ValidateAddress
	// (or is the empty null path for MAIL).
	f := func(s string) bool {
		cmd, err := ParseCommand([]byte("MAIL FROM:<" + s + ">"))
		if err != nil {
			return true
		}
		return len(cmd.Addr) == 0 || ValidateAddress(string(cmd.Addr)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
