// Package smtp implements the SMTP protocol layer shared by both mail
// server architectures: reply formatting, command parsing, a line/dot
// codec with limits, the per-connection session state machine, and a
// client for the load generators.
//
// The subset implemented is the one the paper's workloads exercise —
// HELO/EHLO, MAIL, RCPT (multi-recipient), DATA with dot-stuffing, RSET,
// NOOP, VRFY, QUIT — with the postfix-compatible reply codes, notably
// "550 User unknown" for the bounce mails of §4.1.
package smtp

import (
	"fmt"
	"strings"
)

// Reply is one SMTP server response. Text may contain newlines: each
// becomes a continuation line on the wire ("250-..."), which is how
// the EHLO extension listing is carried while Reply stays a comparable
// value type usable as a map key.
type Reply struct {
	Code int
	Text string
}

// String renders the reply as a single-line response without CRLF.
func (r Reply) String() string { return fmt.Sprintf("%d %s", r.Code, r.Text) }

// IsPositive reports whether the reply is a 2xx or 3xx success code.
func (r Reply) IsPositive() bool { return r.Code >= 200 && r.Code < 400 }

// ReplyError is a Reply travelling as an error: a server's enqueue hook
// returns one to have that reply, rather than the generic 452, answer the
// transaction it could not take.
type ReplyError Reply

func (e ReplyError) Error() string { return Reply(e).String() }

// Standard replies used by the server. Texts follow postfix's wording
// where the paper quotes it ("550 User unknown").
var (
	ReplyBye            = Reply{221, "Bye"}
	ReplyOK             = Reply{250, "Ok"}
	ReplyOKQueued       = Reply{250, "Ok: queued"}
	ReplyVrfy           = Reply{252, "Cannot VRFY user, but will accept message and attempt delivery"}
	ReplyStartData      = Reply{354, "End data with <CR><LF>.<CR><LF>"}
	ReplyShutdown       = Reply{421, "Service not available, closing transmission channel"}
	ReplyTooManyRcpts   = Reply{452, "Too many recipients"}
	ReplyInsufficient   = Reply{452, "Insufficient system storage"}
	ReplyLineTooLong    = Reply{500, "Line too long"}
	ReplyUnknownCommand = Reply{500, "Command unrecognized"}
	ReplySyntax         = Reply{501, "Syntax error in parameters or arguments"}
	ReplyBadSequence    = Reply{503, "Bad sequence of commands"}
	ReplyNeedHelo       = Reply{503, "Send HELO/EHLO first"}
	ReplyUserUnknown    = Reply{550, "User unknown"}
	ReplyNoValidRcpts   = Reply{554, "No valid recipients"}
	ReplyTooBig         = Reply{552, "Message size exceeds fixed limit"}
)

// replyWires holds the preformatted wire form ("250 Ok\r\n") of every
// canonical reply, so the hot reply path is a map probe plus one
// buffered write — no per-reply formatting, no allocation. Replies not
// in the table (dynamic policy texts, banners) are formatted into the
// connection's scratch buffer instead, which is still allocation-free
// after warmup.
var replyWires = map[Reply][]byte{}

// replyLines is replyWires reversed: the wire line of each canonical
// reply, without its CRLF ("250 Ok"), to the Reply. A client reading one
// gets the shared value back instead of a freshly allocated text.
var replyLines = map[string]Reply{}

func init() {
	for _, r := range []Reply{
		ReplyBye, ReplyOK, ReplyOKQueued, ReplyVrfy, ReplyStartData,
		ReplyShutdown, ReplyTooManyRcpts, ReplyInsufficient,
		ReplyLineTooLong, ReplyUnknownCommand, ReplySyntax,
		ReplyBadSequence, ReplyNeedHelo, ReplyUserUnknown,
		ReplyNoValidRcpts, ReplyTooBig,
	} {
		wire := appendReply(nil, r)
		replyWires[r] = wire
		replyLines[string(wire[:len(wire)-2])] = r
	}
}

// appendReply appends the wire form of r to dst without fmt. Newlines
// in the text become RFC 5321 continuation lines ("250-first",
// "250 last"); the common single-line reply pays one IndexByte.
func appendReply(dst []byte, r Reply) []byte {
	text := r.Text
	for {
		line := text
		i := strings.IndexByte(text, '\n')
		last := i < 0
		if !last {
			line, text = text[:i], text[i+1:]
		}
		dst = appendCode(dst, r.Code)
		if last {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, '-')
		}
		dst = append(dst, line...)
		dst = append(dst, '\r', '\n')
		if last {
			return dst
		}
	}
}

// appendCode appends the 3-digit reply code without fmt.
func appendCode(dst []byte, code int) []byte {
	if code >= 100 && code <= 999 {
		return append(dst, byte('0'+code/100), byte('0'+code/10%10), byte('0'+code%10))
	}
	// Out-of-range codes never happen in practice; fall back to the
	// slow path rather than emit garbage digits.
	return append(dst, fmt.Sprintf("%d", code)...)
}

// Banner returns the 220 greeting for a hostname.
func Banner(hostname string) Reply {
	return Reply{220, hostname + " ESMTP ready"}
}

// HeloReply returns the 250 response to HELO.
func HeloReply(hostname string) Reply {
	return Reply{250, hostname}
}

// EhloReply returns the 250 response to EHLO advertising exts as ESMTP
// keywords, one continuation line each. With no extensions it matches
// HeloReply. Servers build this once and reuse it via Config.Ehlo, so
// the per-EHLO cost is the same preformatted write as every reply.
func EhloReply(hostname string, exts ...string) Reply {
	if len(exts) == 0 {
		return HeloReply(hostname)
	}
	return Reply{250, hostname + "\n" + strings.Join(exts, "\n")}
}
