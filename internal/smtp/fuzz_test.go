package smtp

import (
	"bytes"
	"io"
	"testing"
)

// parseSeeds is the shared corpus for the parser fuzz targets: the
// protocol lines the workloads generate plus the malformed shapes the
// parser must reject.
var parseSeeds = []string{
	"HELO client.example",
	"EHLO [127.0.0.1]",
	"MAIL FROM:<a@b.c>",
	"MAIL FROM:<> SIZE=1000",
	"mail from:<USER@Example.COM>",
	"RCPT TO:<u@d.example>",
	"RCPT TO:<@relay.example:u@d.example>",
	"RCPT TO:<>",
	"VRFY <root@localhost>",
	"DATA",
	"RSET ",
	"NOOP",
	"QUIT",
	"MAIL FROM:a@b.c",
	"RCPT TO:<a@>",
	"MAIL FROM:<a b@c>",
	"BDAT 86 LAST",
	"BDAT 0 LAST",
	"bdat 4096 last",
	"BDAT 4096",
	"BDAT",
	"BDAT LAST",
	"BDAT 16777217 LAST",
	"BDAT 99999999999999999999999",
	"BDAT 86 LAST junk",
	"BDAT 86LAST",
	"BDAT 8 6",
	"",
	"   ",
	"MAIL FROM:<\x00@d>",
	"MAIL FROM:<a@b.c>\tSIZE=1",
	"rCpT tO:<MiXeD@CaSe.Org>",
	"MAIL ſrom:<a@b.c>", // long s: ToUpper("ſ") == "S"
	"HELO é.example",
}

// FuzzParseCommand hammers the command parser with arbitrary client
// input — the first untrusted bytes the server touches — and checks its
// invariants: no panic, deterministic output, and any accepted MAIL/RCPT
// address is well-formed.
func FuzzParseCommand(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		line := []byte(s)
		cmd, err := ParseCommand(line)
		cmd2, err2 := ParseCommand(line)
		if cmd.Verb != cmd2.Verb || !bytes.Equal(cmd.Arg, cmd2.Arg) ||
			!bytes.Equal(cmd.Addr, cmd2.Addr) || (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic parse of %q", line)
		}
		if err != nil {
			return
		}
		switch cmd.Verb {
		case VerbMAIL:
			if len(cmd.Addr) > 0 {
				if verr := ValidateAddress(string(cmd.Addr)); verr != nil {
					t.Fatalf("MAIL accepted invalid address %q from %q: %v", cmd.Addr, line, verr)
				}
			}
		case VerbRCPT:
			if len(cmd.Addr) == 0 {
				t.Fatalf("RCPT accepted the null path from %q", line)
			}
			if verr := ValidateAddress(string(cmd.Addr)); verr != nil {
				t.Fatalf("RCPT accepted invalid address %q from %q: %v", cmd.Addr, line, verr)
			}
		case VerbHELO, VerbEHLO, VerbVRFY:
			if len(cmd.Arg) == 0 {
				t.Fatalf("%s accepted an empty argument from %q", cmd.Verb, line)
			}
		}
	})
}

// FuzzParseEquivalence is the differential target for the byte-parser
// rewrite: on every input, the zero-allocation parser must agree with the
// pre-rewrite string parser (kept verbatim in oracle_test.go) on
// accept/reject, on the error class, and on the parsed argument and
// address text. The one deliberate divergence is excluded structurally:
// the byte parser leaves Command.Verb empty on unknown verbs instead of
// echoing the uppercased text, so verbs are only compared on success,
// where both parsers recognized the command.
func FuzzParseEquivalence(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := ParseCommand([]byte(s))
		want, wantErr := oracleParseCommand(s)
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("ParseCommand(%q) err = %v, oracle err = %v", s, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Verb != want.Verb {
			t.Fatalf("ParseCommand(%q) verb = %q, oracle = %q", s, got.Verb, want.Verb)
		}
		if string(got.Arg) != want.Arg {
			t.Fatalf("ParseCommand(%q) arg = %q, oracle = %q", s, got.Arg, want.Arg)
		}
		if string(got.Addr) != want.Addr {
			t.Fatalf("ParseCommand(%q) addr = %q, oracle = %q", s, got.Addr, want.Addr)
		}
		if got.Size != want.Size || got.Last != want.Last {
			t.Fatalf("ParseCommand(%q) chunk = %d %v, oracle = %d %v", s, got.Size, got.Last, want.Size, want.Last)
		}
	})
}

// FuzzParsePath targets the MAIL/RCPT path parser directly: any address
// it returns must be empty (the null reverse-path) or valid, and never
// contain angle brackets or whitespace.
func FuzzParsePath(f *testing.F) {
	for _, seed := range []string{
		"FROM:<a@b.c>",
		"FROM:<>",
		"FROM:<a@b.c> SIZE=100 BODY=8BITMIME",
		"FROM: <spaced@out.example>",
		"TO:<@r1.example,@r2.example:deep@route.example>",
		"TO:<\"quoted local\"@d.example>",
		"TO:<a@b@c>",
		"FROM:",
		"FROM:<unclosed@d",
		"from:<lower@case.example>",
	} {
		f.Add(seed, "FROM")
		f.Add(seed, "TO")
	}
	f.Fuzz(func(t *testing.T, arg, keyword string) {
		if keyword != "FROM" && keyword != "TO" {
			// parsePath is only ever called with these two keywords.
			keyword = "FROM"
		}
		addr, params, err := parsePath([]byte(arg), keyword)
		if err != nil {
			if len(addr) != 0 {
				t.Fatalf("parsePath(%q) returned %q alongside error %v", arg, addr, err)
			}
			return
		}
		if bytes.IndexByte(params, '<') == 0 {
			t.Fatalf("parsePath(%q) leaked a path into params %q", arg, params)
		}
		if len(addr) == 0 {
			return // the null reverse-path
		}
		if verr := ValidateAddress(string(addr)); verr != nil {
			t.Fatalf("parsePath(%q) returned invalid address %q: %v", arg, addr, verr)
		}
		if bytes.ContainsAny(addr, "<> \t") {
			t.Fatalf("parsePath(%q) leaked path syntax into %q", arg, addr)
		}
	})
}

// splitReader hands out its payload in reads whose sizes cycle through
// sizes (1–8 bytes each; all that is asked for when sizes is empty).
type splitReader struct {
	p     []byte
	sizes []byte
	i     int
}

func (r *splitReader) Read(b []byte) (int, error) {
	if len(r.p) == 0 {
		return 0, io.EOF
	}
	n := len(b)
	if len(r.sizes) > 0 {
		n = min(n, int(r.sizes[r.i%len(r.sizes)]%8)+1)
		r.i++
	}
	n = copy(b, r.p[:min(n, len(r.p))])
	r.p = r.p[n:]
	return n, nil
}

// writeDataOracle is the line-at-a-time DATA encoder WriteData was
// before it shared the streaming encoder: split on LF, drop one CR
// before it, double a leading dot, end every line CRLF, then the dot.
func writeDataOracle(body []byte) []byte {
	var out []byte
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = bytes.TrimSuffix(body[:i], []byte("\r")), body[i+1:]
		} else {
			body = nil
		}
		if len(line) > 0 && line[0] == '.' {
			out = append(out, '.')
		}
		out = append(append(out, line...), "\r\n"...)
	}
	return append(out, ".\r\n"...)
}

// FuzzStreamData checks that a body streamed in reads of any sizes goes
// out byte for byte as WriteData sends it whole, and both as the
// line-at-a-time oracle encodes it: the dot-stuffing state (start of
// line, a CR waiting on its LF) must survive every read edge.
func FuzzStreamData(f *testing.F) {
	for _, seed := range []struct {
		body   string
		splits []byte
	}{
		{"", nil},
		{".leading dot\r\n..two dots\r\n.\r\n", []byte{0}}, // 1-byte reads
		{"a\r\nb\r\nc", []byte{1}},                         // a CR at every read edge
		{"bare\nlf\n.x\nend\n", []byte{2, 0}},
		{"no final newline", []byte{4}},
		{"ends in CR\r", []byte{0, 1, 2}},
		{"x\r\r\n\r\n\r", []byte{1, 0}},
		{"\r", nil},
		{". \r\n.\n", nil},
	} {
		f.Add([]byte(seed.body), seed.splits)
	}
	f.Fuzz(func(t *testing.T, body, splits []byte) {
		c, whole := newRW("")
		if err := c.WriteData(body); err != nil {
			t.Fatal(err)
		}
		calls := 0
		c, streamed := newRW("")
		r := &splitReader{p: body, sizes: splits}
		if err := c.StreamData(r, int64(len(body)), func() error { calls++; return nil }); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := writeDataOracle(body); !bytes.Equal(whole.out.Bytes(), want) {
			t.Fatalf("body %q:\nWriteData %q\noracle    %q", body, whole.out.Bytes(), want)
		}
		if !bytes.Equal(streamed.out.Bytes(), whole.out.Bytes()) {
			t.Fatalf("body %q in reads %v:\nstreamed  %q\nWriteData %q", body, splits, streamed.out.Bytes(), whole.out.Bytes())
		}
		if calls < 1 {
			t.Fatal("before never ran")
		}
	})
}
