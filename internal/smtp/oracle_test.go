package smtp

// The pre-rewrite string-based command parser, kept verbatim (modulo
// renames) as the behavioral oracle for FuzzParseEquivalence: the
// zero-allocation byte parser must accept exactly what this one accepted,
// reject with the same error class, and produce the same argument and
// address text. Do not "improve" this file — its value is that it does
// not change.

import (
	"fmt"
	"strconv"
	"strings"
)

type oracleCommand struct {
	Verb Verb
	Arg  string
	Addr string
	Size int
	Last bool
}

type oracleErrSyntax struct{ Line string }

func (e *oracleErrSyntax) Error() string { return fmt.Sprintf("smtp: syntax error in %q", e.Line) }

type oracleErrUnknownVerb struct{ VerbText string }

func (e *oracleErrUnknownVerb) Error() string {
	return fmt.Sprintf("smtp: unknown command %q", e.VerbText)
}

func oracleParseCommand(line string) (oracleCommand, error) {
	trimmed := strings.TrimRight(line, " \t")
	verbText := trimmed
	arg := ""
	if i := strings.IndexByte(trimmed, ' '); i >= 0 {
		verbText, arg = trimmed[:i], strings.TrimSpace(trimmed[i+1:])
	}
	verb := Verb(strings.ToUpper(verbText))
	cmd := oracleCommand{Verb: verb, Arg: arg}
	switch verb {
	case VerbHELO, VerbEHLO:
		if arg == "" {
			return cmd, &oracleErrSyntax{Line: line}
		}
		return cmd, nil
	case VerbMAIL:
		addr, err := oracleParsePath(arg, "FROM")
		if err != nil {
			return cmd, err
		}
		cmd.Addr = addr
		return cmd, nil
	case VerbRCPT:
		addr, err := oracleParsePath(arg, "TO")
		if err != nil {
			return cmd, err
		}
		if cmd.Addr = addr; addr == "" {
			return cmd, &oracleErrSyntax{Line: line}
		}
		return cmd, nil
	case VerbVRFY:
		if arg == "" {
			return cmd, &oracleErrSyntax{Line: line}
		}
		cmd.Addr = strings.Trim(arg, "<>")
		return cmd, nil
	case VerbBDAT:
		digits := strings.TrimRight(arg, " LASTlast")
		rest := arg[len(digits):]
		if digits == "" || strings.Trim(digits, "0123456789") != "" ||
			rest != "" && (rest[0] != ' ' || strings.ToUpper(strings.TrimLeft(rest, " ")) != "LAST") {
			return cmd, &oracleErrSyntax{Line: line}
		}
		cmd.Size, cmd.Last = MaxChunkSize, rest != ""
		if n, err := strconv.Atoi(digits); err == nil && n < MaxChunkSize {
			cmd.Size = n
		}
		return cmd, nil
	case VerbDATA, VerbRSET, VerbNOOP, VerbQUIT:
		return cmd, nil
	default:
		return cmd, &oracleErrUnknownVerb{VerbText: verbText}
	}
}

func oracleParsePath(arg, keyword string) (string, error) {
	upper := strings.ToUpper(arg)
	prefix := keyword + ":"
	if !strings.HasPrefix(upper, prefix) {
		return "", &oracleErrSyntax{Line: arg}
	}
	rest := strings.TrimSpace(arg[len(prefix):])
	path := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		path = rest[:i]
	}
	if !strings.HasPrefix(path, "<") || !strings.HasSuffix(path, ">") {
		return "", &oracleErrSyntax{Line: arg}
	}
	addr := path[1 : len(path)-1]
	if i := strings.LastIndexByte(addr, ':'); i >= 0 && strings.HasPrefix(addr, "@") {
		addr = addr[i+1:]
	}
	if addr == "" {
		return "", nil
	}
	if err := oracleValidateAddress(addr); err != nil {
		return "", err
	}
	return addr, nil
}

func oracleValidateAddress(addr string) error {
	at := strings.IndexByte(addr, '@')
	if at <= 0 || at == len(addr)-1 || strings.IndexByte(addr[at+1:], '@') >= 0 {
		return &oracleErrSyntax{Line: addr}
	}
	for i := 0; i < len(addr); i++ {
		if c := addr[i]; c <= ' ' || c == 127 {
			return &oracleErrSyntax{Line: addr}
		}
	}
	return nil
}

// errClass buckets a parse error from either parser into "syntax",
// "unknown", or "nil" so the equivalence check compares classes, not
// message text (the byte parser deliberately drops the detail text).
func errClass(err error) string {
	switch err.(type) {
	case nil:
		return "nil"
	case *ErrSyntax, *oracleErrSyntax:
		return "syntax"
	case *ErrUnknownVerb, *oracleErrUnknownVerb:
		return "unknown"
	default:
		return "other"
	}
}
