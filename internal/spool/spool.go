// Package spool implements the durable on-disk queue store under the
// queue manager: an append-only record file per mail, organised into
// per-lane directories, over any fsim.FS.
//
// A spooled mail is one file holding two length-prefixed frames — the
// MFS record framing reused for the spool (format.go in internal/mfs is
// the model): an envelope frame (sender, recipients, attempts, earliest
// retry time) followed by a body frame. Both frames go out before a
// single Sync, so a mail is durable exactly when Append returns.
//
// Lanes are directories:
//
//	<dir>/active/<id>    — queued or being delivered
//	<dir>/deferred/<id>  — parked for retry (NotBefore says when)
//	<dir>/hold/<id>      — parked indefinitely (operator action or
//	                       undeliverable double-bounces)
//
// Beside the lanes, <dir>/epoch/<n> is an empty file naming the boot epoch
// of the process that owns the spool (BeginEpoch); no lane scan sees it.
//
// Lane moves are link-then-remove, so a crash can leave a mail visible
// in two lanes but never in none. Recover resolves duplicates by lane
// precedence (hold > deferred > active — the destination of every legal
// move wins or is safe), drops torn files (crash mid-write), and returns
// every surviving mail, which is how a restarted queue manager loses no
// accepted mail.
package spool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/fsim"
	"repro/internal/trace"
)

// Lane is a spool directory: the queue manager's coarse mail state.
type Lane string

// The three lanes of the scheduler's state machine.
const (
	LaneActive   Lane = "active"
	LaneDeferred Lane = "deferred"
	LaneHold     Lane = "hold"
)

// Lanes lists every lane in recovery-precedence order: when a crashed
// lane move leaves a mail in two lanes, the earlier lane wins.
var Lanes = []Lane{LaneHold, LaneDeferred, LaneActive}

// ErrTorn is returned (wrapped) when a spool file fails to parse — the
// signature of a crash mid-write. Recover treats torn files as never
// written.
var ErrTorn = errors.New("spool: torn record")

// Envelope is the durable per-mail metadata.
type Envelope struct {
	// ID is the server-generated queue id (also the spool file name).
	ID string
	// Sender is the envelope sender ("" for the null sender).
	Sender string
	// Rcpts are the recipients still awaiting delivery.
	Rcpts []string
	// Attempts counts delivery attempts made so far.
	Attempts int
	// NotBefore is the earliest next delivery time (zero: immediately);
	// it survives restarts so recovered mail keeps its backoff position.
	NotBefore time.Time
	// Trace is the mail's message-trace context (trace id halves and
	// the span new work parents under). It persists in the envelope
	// frame so a crash-recovered mail resumes its trace; all-zero means
	// the mail was never sampled.
	Trace trace.Context
}

// Mail is one recovered spool entry. It owns Frame, which holds the body.
type Mail struct {
	Envelope
	Lane  Lane
	Frame *Frame
}

// RecoveryStats summarizes a Recover scan.
type RecoveryStats struct {
	// Recovered counts mails returned, keyed by lane.
	Recovered map[Lane]int
	// Torn counts files dropped as torn (crash mid-write).
	Torn int
	// Duplicates counts crashed lane moves resolved (the losing name
	// was removed).
	Duplicates int
}

// Store is the spool. Operations on distinct ids are independent; the
// caller (the queue manager, which owns each in-flight item) must
// serialize operations on one id.
type Store struct {
	fs  fsim.FS
	dir string
}

// New returns a spool rooted at dir (e.g. "queue") on fs. The directory
// need not exist; lanes are created on first use.
func New(fs fsim.FS, dir string) *Store {
	if dir == "" {
		dir = "queue"
	}
	return &Store{fs: fs, dir: dir}
}

func (s *Store) path(lane Lane, id string) string {
	return s.dir + "/" + string(lane) + "/" + id
}

// Envelope frame versions. v1 predates message tracing; v2 appends the
// trace context (three u64s) after the recipient list. The decoder
// accepts both, so spools written before the upgrade recover cleanly —
// their mails simply carry no trace.
const (
	envVersionV1 = 1
	envVersion   = 2
	traceLen     = 24 // the three u64s v2 appends
)

// envelopeLen validates env and returns the length of its encoding.
func envelopeLen(env Envelope) (int, error) {
	if len(env.ID) > 0xffff || len(env.Sender) > 0xffff {
		return 0, fmt.Errorf("spool: envelope field too long")
	}
	if len(env.Rcpts) > 0xffff {
		return 0, fmt.Errorf("spool: too many recipients (%d)", len(env.Rcpts))
	}
	n := 1 + 4 + 8 + 2 + len(env.ID) + 2 + len(env.Sender) + 2 + traceLen
	for _, r := range env.Rcpts {
		if len(r) > 0xffff {
			return 0, fmt.Errorf("spool: recipient too long")
		}
		n += 2 + len(r)
	}
	return n, nil
}

// appendEnvelope appends the payload of env's envelope frame to dst; env
// has passed envelopeLen.
func appendEnvelope(dst []byte, env Envelope) []byte {
	var nb int64
	if !env.NotBefore.IsZero() {
		nb = env.NotBefore.UnixNano()
	}
	dst = append(dst, envVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(env.Attempts))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(nb))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(env.ID)))
	dst = append(dst, env.ID...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(env.Sender)))
	dst = append(dst, env.Sender...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(env.Rcpts)))
	for _, r := range env.Rcpts {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r)))
		dst = append(dst, r...)
	}
	dst = binary.LittleEndian.AppendUint64(dst, env.Trace.Hi)
	dst = binary.LittleEndian.AppendUint64(dst, env.Trace.Lo)
	return binary.LittleEndian.AppendUint64(dst, env.Trace.Span)
}

// decodeEnvelope parses an envelope frame payload.
func decodeEnvelope(p []byte) (Envelope, error) {
	var env Envelope
	rd := &reader{p: p}
	ver, err := rd.byte()
	if err != nil || (ver != envVersionV1 && ver != envVersion) {
		return env, fmt.Errorf("%w: bad envelope version", ErrTorn)
	}
	att, err := rd.u32()
	if err != nil {
		return env, err
	}
	env.Attempts = int(att)
	nb, err := rd.u64()
	if err != nil {
		return env, err
	}
	if nb != 0 {
		env.NotBefore = time.Unix(0, int64(nb))
	}
	if env.ID, err = rd.str(); err != nil {
		return env, err
	}
	if env.Sender, err = rd.str(); err != nil {
		return env, err
	}
	n, err := rd.u16()
	if err != nil {
		return env, err
	}
	if 2*int(n) > len(p)-rd.pos {
		// Every recipient takes at least its length prefix; a count the
		// remaining bytes cannot hold must not size an allocation.
		return env, ErrTorn
	}
	env.Rcpts = make([]string, 0, n)
	for i := 0; i < int(n); i++ {
		r, err := rd.str()
		if err != nil {
			return env, err
		}
		env.Rcpts = append(env.Rcpts, r)
	}
	if ver >= envVersion {
		if env.Trace.Hi, err = rd.u64(); err != nil {
			return env, err
		}
		if env.Trace.Lo, err = rd.u64(); err != nil {
			return env, err
		}
		if env.Trace.Span, err = rd.u64(); err != nil {
			return env, err
		}
	}
	return env, nil
}

// reader is a bounds-checked cursor over an envelope payload; every
// failure is a torn record.
type reader struct {
	p   []byte
	pos int
}

func (r *reader) byte() (byte, error) {
	if r.pos+1 > len(r.p) {
		return 0, ErrTorn
	}
	b := r.p[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) u16() (uint16, error) {
	if r.pos+2 > len(r.p) {
		return 0, ErrTorn
	}
	v := binary.LittleEndian.Uint16(r.p[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.pos+4 > len(r.p) {
		return 0, ErrTorn
	}
	v := binary.LittleEndian.Uint32(r.p[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.pos+8 > len(r.p) {
		return 0, ErrTorn
	}
	v := binary.LittleEndian.Uint64(r.p[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.pos+int(n) > len(r.p) {
		return "", ErrTorn
	}
	s := string(r.p[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// writeMail writes a frame's image — envelope frame, body frame — into
// lane as one Write and syncs, so a crash leaves either the whole mail or
// a torn file the recovery scan drops; the mail is durable when it returns
// nil. On an error the caller will refuse the mail, so the file must not
// survive to be recovered (and delivered) by a later Recover: it is
// removed, best effort — if that fails too, what is left is the same
// well-framed-or-torn file a crash would have left.
func (s *Store) writeMail(lane Lane, fr *Frame) error {
	name := s.path(lane, fr.id)
	f, err := s.fs.Create(name)
	if err != nil {
		return fmt.Errorf("spool: %s: %w", fr.id, err)
	}
	if _, err = f.Write(fr.buf[fr.start:]); err == nil {
		err = f.Sync()
	}
	f.Close()
	if err != nil {
		_ = s.fs.Remove(name) // best effort, see above
		return fmt.Errorf("spool: %s: %w", fr.id, err)
	}
	return nil
}

// Append spools a new mail into the active lane.
func (s *Store) Append(fr *Frame) error {
	if fr.id == "" {
		return fmt.Errorf("spool: empty id")
	}
	return s.writeMail(LaneActive, fr)
}

// Move relinks a mail from one lane to another without touching its
// content (link new, remove old). A crash between the two leaves the
// mail in both lanes; Recover resolves it by lane precedence.
func (s *Store) Move(id string, from, to Lane) error {
	oldp, newp := s.path(from, id), s.path(to, id)
	if err := s.fs.Link(oldp, newp); err != nil && !errors.Is(err, fsim.ErrExist) {
		return fmt.Errorf("spool: move %s: %w", id, err)
	}
	if err := s.fs.Remove(oldp); err != nil && !errors.Is(err, fsim.ErrNotExist) {
		return fmt.Errorf("spool: move %s: %w", id, err)
	}
	return nil
}

// Rewrite persists an updated envelope (attempts, retry time, remaining
// recipients; the caller has put it in the frame with SetEnvelope) while
// moving the mail from one lane to another: the new lane gets a freshly
// written durable copy, then the old name goes. A crash mid-write leaves a
// torn file in the destination plus the intact source, which Recover
// resolves to the source copy — the update is atomic: old state or new,
// never neither.
func (s *Store) Rewrite(fr *Frame, from, to Lane) error {
	if err := s.writeMail(to, fr); err != nil {
		return err
	}
	if from == to {
		return nil
	}
	if err := s.fs.Remove(s.path(from, fr.id)); err != nil && !errors.Is(err, fsim.ErrNotExist) {
		return fmt.Errorf("spool: rewrite %s: %w", fr.id, err)
	}
	return nil
}

// Ack removes a finished mail (delivered, bounced, or dropped) from its
// lane.
func (s *Store) Ack(id string, lane Lane) error {
	if err := s.fs.Remove(s.path(lane, id)); err != nil && !errors.Is(err, fsim.ErrNotExist) {
		return fmt.Errorf("spool: ack %s: %w", id, err)
	}
	return nil
}

// read loads and parses one spool file.
func (s *Store) read(lane Lane, id string) (Mail, error) {
	var m Mail
	f, err := s.fs.OpenRead(s.path(lane, id))
	if err != nil {
		return m, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return m, err
	}
	// Slack in front: a v1 envelope gains its trace context when rewritten.
	fr := getFrame(traceLen + int(size))
	if size > 0 {
		if _, err := f.ReadAt(fr.buf[traceLen:], 0); err != nil && err != io.EOF {
			return m, err
		}
	}
	envFrame, rest, err := frame(fr.buf[traceLen:])
	if err != nil {
		return m, err
	}
	env, err := decodeEnvelope(envFrame)
	if err != nil {
		return m, err
	}
	body, _, err := frame(rest)
	if err != nil {
		return m, err
	}
	if env.ID != id {
		return m, fmt.Errorf("%w: id mismatch (%s in file %s)", ErrTorn, env.ID, id)
	}
	// Anything after the body frame is not part of the mail.
	fr.id, fr.start, fr.body = id, traceLen, len(fr.buf)-len(rest)+4
	fr.buf = fr.buf[:fr.body+len(body)]
	m.Envelope = env
	m.Lane = lane
	m.Frame = fr
	return m, nil
}

// frame splits one length-prefixed frame off the front of data.
func frame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(data)
	if int64(4)+int64(n) > int64(len(data)) {
		return nil, nil, ErrTorn
	}
	return data[4 : 4+n], data[4+n:], nil
}

// BeginEpoch claims the calling process's boot epoch: 0 on a fresh spool,
// otherwise one more than the highest epoch an earlier process recorded.
// The record is durable before BeginEpoch returns, so ids that carry the
// epoch are never issued again by a later process even if every mail of
// this one has left the spool by then. Earlier records are removed once
// the new one is safe.
func (s *Store) BeginEpoch() (uint64, error) {
	prefix := s.dir + "/epoch/"
	old := s.fs.List(prefix)
	var epoch uint64
	for _, name := range old {
		if v, err := strconv.ParseUint(name[len(prefix):], 16, 64); err == nil && v >= epoch {
			epoch = v + 1
		}
	}
	if len(old) == 0 {
		// No record and mail in a lane: a spool written before epochs
		// existed, whose ids are all in epoch 0.
		for _, lane := range Lanes {
			if s.LaneDepth(lane) > 0 {
				epoch = 1
			}
		}
	}
	f, err := s.fs.Create(fmt.Sprintf("%s%06X", prefix, epoch))
	if err != nil {
		return 0, fmt.Errorf("spool: epoch %d: %w", epoch, err)
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("spool: epoch %d: %w", epoch, err)
	}
	for _, name := range old {
		_ = s.fs.Remove(name) // best effort: the highest record decides
	}
	return epoch, nil
}

// LaneDepth returns the number of mails currently in a lane.
func (s *Store) LaneDepth(lane Lane) int {
	return len(s.fs.List(s.dir + "/" + string(lane) + "/"))
}

// Recover scans every lane and returns each surviving mail exactly once.
// Torn files are removed; a mail visible in two lanes (a crashed Move)
// is kept in the higher-precedence lane and removed from the other, so
// no mail is ever returned — or later delivered — twice.
func (s *Store) Recover() ([]Mail, RecoveryStats, error) {
	stats := RecoveryStats{Recovered: make(map[Lane]int)}
	var out []Mail
	seen := make(map[string]bool)
	for _, lane := range Lanes {
		prefix := s.dir + "/" + string(lane) + "/"
		for _, name := range s.fs.List(prefix) {
			id := name[len(prefix):]
			if seen[id] {
				// The losing half of a crashed lane move.
				stats.Duplicates++
				if err := s.fs.Remove(name); err != nil && !errors.Is(err, fsim.ErrNotExist) {
					return out, stats, err
				}
				continue
			}
			m, err := s.read(lane, id)
			if err != nil {
				if errors.Is(err, ErrTorn) {
					stats.Torn++
					if rerr := s.fs.Remove(name); rerr != nil && !errors.Is(rerr, fsim.ErrNotExist) {
						return out, stats, rerr
					}
					continue
				}
				return out, stats, fmt.Errorf("spool: recover %s: %w", id, err)
			}
			seen[id] = true
			stats.Recovered[lane]++
			out = append(out, m)
		}
	}
	return out, stats, nil
}
