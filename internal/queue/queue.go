// Package queue implements the postfix-style mail queue pipeline of the
// paper's Figure 2: a mail accepted by smtpd is delivered at once or
// enters the incoming queue (spooled durably to the filesystem), the
// queue manager moves spooled mails through a bounded set of delivery
// workers (the active queue), and failures park in the deferred queue for
// retry with exponential backoff.
// Mails that exhaust their attempts produce a DSN bounce to the sender, or
// stay in the hold lane: an accepted mail never leaves the spool
// undelivered.
//
// While the store is healthy — no delivery has failed since the last one
// that succeeded — Enqueue skips the spool: it makes the mail's first
// delivery attempt itself, on the caller's goroutine, and a mail the
// Deliverer took is durable in its mailboxes before Enqueue returns, so
// the 250 after it costs no spool I/O. Only a mail the store refuses is
// spooled, carrying that refusal as attempt 1, and from then on new mail
// is spooled first until a delivery succeeds again. The spool and the
// workers carry only that mail.
//
// The spool's on-disk state (see internal/spool) is authoritative for the
// mail it holds: a spooled mail lives in a lane directory until delivered
// or bounced, and NewManager re-enqueues whatever a crashed predecessor
// left behind.
//
// Queue-ids are generated by the manager, never taken from the client —
// the MFS security argument (§6.4) depends on server-generated mail-ids.
package queue

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/eventlog"
	"repro/internal/fsim"
	"repro/internal/metrics"
	"repro/internal/spool"
	"repro/internal/trace"
)

// Item is one queued mail.
type Item struct {
	// ID is the server-generated queue id, also used as the MFS mail-id.
	ID string
	// Sender is the envelope sender ("" for the null sender).
	Sender string
	// Rcpts are the recipients still owed delivery. A Deliverer that
	// succeeds for a subset may shrink this slice before returning its
	// error, by reslicing it or assigning a new one but never by writing
	// its elements (on attempt 1 it is Enqueue's caller's slice); the
	// queue persists the shrunk envelope, so retries never redeliver to a
	// destination that already accepted the mail.
	Rcpts []string
	// Data is the message body: Enqueue's caller's buffer on attempt 1,
	// a view of the item's spool frame on every later one.
	Data []byte
	// Attempts counts delivery attempts made so far.
	Attempts int
	// Trace is the mail's message-trace context: the span id new work
	// on this mail parents under. Deliverers may read it to attach
	// their own spans; the queue persists it with the envelope so a
	// recovered mail resumes its trace. Zero means unsampled.
	Trace trace.Context

	// frame is the mail's spool image, which Data points into; the item owns
	// it until the worker releases it after the item's last spool operation.
	frame *spool.Frame

	// st is the item's scheduler state and readyAt when it last became
	// pending; both are written only by transit, under Manager.mu.
	st      state
	readyAt time.Time
}

// state is where the scheduler counts a live mail. It also names the lane
// holding the disk copy: pending and in-flight mails are in the active
// lane, waiting mails in the deferred lane. stNone is a mail the manager
// does not (or no longer) drive: not yet accepted, finished, held, or left
// in its lane by Close for the next manager's recovery.
type state uint8

const (
	stNone state = iota
	stPending
	stInFlight
	stWaiting
	numStates
)

// Deliverer performs final delivery of one item (the local agent of
// Figure 2). A nil error means the mail is durable where it was
// delivered and removes the item from the queue; an error sends it to
// the deferred queue. Deliver may run on Enqueue's goroutine: on a
// healthy store the first attempt is made there, before the mail is
// spooled, and its error spools the mail as attempt 1. The item and
// item.Data are valid only until Deliver returns: the queue reuses both
// for another mail, so a Deliverer that wants the bytes later copies
// them.
type Deliverer interface {
	Deliver(item *Item) error
}

// BounceFunc synthesizes a DSN for a mail that exhausted its delivery
// attempts. It returns the bounce recipients and body; ok=false means
// no bounce may be sent (the failed mail was itself a bounce) and the
// mail goes to the hold lane instead, as every exhausted mail does when
// no BounceFunc is configured. bounce.Generator.Synthesize has
// exactly this shape.
type BounceFunc func(id, sender string, rcpts []string, data []byte, reason string) (brcpts []string, bdata []byte, ok bool)

// Config parameterizes a Manager.
type Config struct {
	// Deliverer receives items; required.
	Deliverer Deliverer
	// Store persists every accepted mail not delivered inline until
	// delivered or bounced, and makes NewManager recover whatever a
	// previous manager left behind. Nil means a private spool on a
	// zero-cost in-memory filesystem: the same code path, with nothing to
	// survive the process (simulations and tests).
	Store *spool.Store
	// ActiveLimit is the number of delivery workers, which bounds
	// concurrent deliveries of spooled mail (default 4). An inline first
	// attempt runs on Enqueue's caller and is bounded by the front end's
	// own workers.
	ActiveLimit int
	// MaxAttempts bounds delivery attempts before a mail is bounced (or
	// held when no Bounce is configured; default 3).
	MaxAttempts int
	// RetryDelay is a mail's deferred-queue delay after its first failed
	// attempt; each further failed attempt of that mail doubles it
	// (default 100ms; tests use small values).
	RetryDelay time.Duration
	// MaxRetryDelay caps the backoff (default 1min).
	MaxRetryDelay time.Duration
	// RetryJitter spreads retry times by ±fraction (default 0.2 — the
	// retry-synchronization herd is real; negative disables, for
	// deterministic tests).
	RetryJitter float64
	// IntakeLimit bounds the incoming queue (default 1024). Enqueue
	// fails fast when full — the overload backpressure signal.
	IntakeLimit int
	// Bounce, if non-nil, turns exhausted mails into DSNs enqueued from
	// the null sender (see internal/bounce). Nil parks them in the hold
	// lane.
	Bounce BounceFunc
	// Registry receives the queue's metrics (queue_wait_seconds,
	// queue_delivery_seconds, counters, depth gauges). Nil means a
	// private registry, so side-by-side managers never share series.
	Registry *metrics.Registry
	// Tracer, if non-nil, records message-lifecycle spans: a "queue"
	// span per worker pickup (the intake wait; an inline attempt never
	// waited and has none) and a "delivery" span around each Deliverer
	// call. During delivery the item's Trace is swapped to the delivery
	// span's context so the deliverer's own spans (store commit) parent
	// under it.
	Tracer *trace.MessageRecorder
	// Events, if non-nil, receives structured events: queue.delivered
	// per successful delivery (debug; sample under load), queue.deferred
	// per deferral, queue.bounce per DSN, queue.hold per hold-lane park
	// and queue.recovered per startup scan.
	Events *eventlog.Log
}

// ErrQueueFull is returned by Enqueue when the incoming queue is full.
var ErrQueueFull = errors.New("queue: incoming queue full")

// ErrClosed is returned by Enqueue after Close.
var ErrClosed = errors.New("queue: manager closed")

// Stats is a snapshot of queue counters.
type Stats struct {
	Enqueued  int64
	Delivered int64
	Deferred  int64 // deferral events (one mail may defer repeatedly)
	Bounced   int64 // DSNs generated for exhausted mails
	Held      int64 // exhausted mails no DSN could be sent for, parked in the hold lane
	Dead      int64 // always 0: no mail is dropped; bench/run.go still reads the field
	InFlight  int   // spooled mails being delivered (an inline attempt is not yet accepted)
	Pending   int   // waiting in the incoming queue
	Waiting   int   // parked in the deferred queue
}

// Manager is the queue manager. Create with NewManager; stop with Close.
//
// Every live mail is in exactly one state, counted in n; transit is the
// only place a count changes, and the spool I/O that puts the disk copy
// where the new state says it is runs before the call, so a mail between
// two states is still counted in the one it is leaving.
type Manager struct {
	cfg   Config
	store *spool.Store

	mu       sync.Mutex
	work     *sync.Cond // workers wait here; signalled once per ready mail
	idle     *sync.Cond // WaitIdle waits here; woken when nothing is live
	closed   bool
	seq      uint64
	n        [numStates]int
	reserved int     // Enqueue slots claimed while the mail is being spooled
	ready    []*Item // pending FIFO; ready[:head] is already picked up
	head     int
	timers   map[*Item]*time.Timer // retry timers of waiting mails
	streak   int                   // consecutive failed deliveries; 0 lets Enqueue deliver inline
	rng      uint64
	recovery spool.RecoveryStats

	reg       *metrics.Registry
	enqueued  *metrics.Counter
	delivered *metrics.Counter
	deferred  *metrics.Counter
	bounced   *metrics.Counter
	held      *metrics.Counter
	waitHist  *metrics.Histogram
	delivHist *metrics.Histogram

	// running counts the goroutines that may call the Deliverer or touch
	// the spool: the workers, each retry move from timer fire to re-entry,
	// and each inline attempt until its Enqueue returns.
	running sync.WaitGroup
}

// NewManager starts a queue manager with cfg.ActiveLimit delivery
// workers. It first claims the spool's next boot epoch, which its queue
// ids carry, and recovers every mail a previous manager left in the
// spool: active-lane mails re-enter the incoming queue, deferred-lane
// mails keep their NotBefore backoff position, hold-lane mails stay
// parked.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Deliverer == nil {
		return nil, fmt.Errorf("queue: Deliverer is required")
	}
	if cfg.ActiveLimit <= 0 {
		cfg.ActiveLimit = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 100 * time.Millisecond
	}
	if cfg.MaxRetryDelay <= 0 {
		cfg.MaxRetryDelay = time.Minute
	}
	if cfg.RetryJitter == 0 {
		cfg.RetryJitter = 0.2
	}
	if cfg.IntakeLimit <= 0 {
		cfg.IntakeLimit = 1024
	}
	if cfg.Store == nil {
		cfg.Store = spool.New(fsim.NewMem(costmodel.FSModel{}), "")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Manager{
		cfg:    cfg,
		store:  cfg.Store,
		timers: make(map[*Item]*time.Timer),
		rng:    0x9E3779B97F4A7C15,

		reg:       reg,
		enqueued:  reg.Counter("queue_enqueued_total"),
		delivered: reg.Counter("queue_delivered_total"),
		deferred:  reg.Counter("queue_deferred_total"),
		bounced:   reg.Counter("queue_bounced_total"),
		held:      reg.Counter("queue_held_total"),
		waitHist:  reg.Histogram("queue_wait_seconds", metrics.LatencyBounds()),
		delivHist: reg.Histogram("queue_delivery_seconds", metrics.LatencyBounds()),
	}
	m.work = sync.NewCond(&m.mu)
	m.idle = sync.NewCond(&m.mu)
	// Queue depths read live manager state; GaugeFunc keeps the snapshot
	// path allocation-free for the hot counters.
	reg.GaugeFunc("queue_pending", func() float64 { return float64(m.Stats().Pending) })
	reg.GaugeFunc("queue_inflight", func() float64 { return float64(m.Stats().InFlight) })
	reg.GaugeFunc("queue_deferred_waiting", func() float64 { return float64(m.Stats().Waiting) })
	for _, lane := range spool.Lanes {
		lane := lane
		reg.GaugeFunc("queue_lane_depth",
			func() float64 { return float64(m.store.LaneDepth(lane)) },
			"lane", string(lane))
	}
	epoch, err := m.store.BeginEpoch()
	if err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	if epoch >= 1<<(64-seqBits) {
		return nil, fmt.Errorf("queue: boot epoch %d does not fit a queue id", epoch)
	}
	m.seq = epoch << seqBits
	if err := m.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.ActiveLimit; i++ {
		m.running.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover puts every mail the spool scan returns back in the state its
// lane names: active-lane mails are pending (however many there are — the
// ready queue has no capacity, IntakeLimit only refuses new mail while
// the backlog drains), deferred-lane mails wait out what is left of their
// backoff, hold-lane mails stay parked until operator action.
func (m *Manager) recover() error {
	mails, stats, err := m.store.Recover()
	if err != nil {
		return fmt.Errorf("queue: recover: %w", err)
	}
	m.recovery = stats
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range mails {
		ml := &mails[i]
		item := &Item{
			ID:       ml.ID,
			Sender:   ml.Sender,
			Rcpts:    ml.Rcpts,
			Data:     ml.Frame.Body(),
			Attempts: ml.Attempts,
			Trace:    ml.Trace,
			frame:    ml.Frame,
		}
		switch ml.Lane {
		case spool.LaneActive:
			m.transit(item, stPending, 0)
		case spool.LaneDeferred:
			m.transit(item, stWaiting, max(time.Until(ml.NotBefore), time.Millisecond))
		}
	}
	m.cfg.Events.Info("queue.recovered", 0,
		eventlog.Int("active", int64(stats.Recovered[spool.LaneActive])),
		eventlog.Int("deferred", int64(stats.Recovered[spool.LaneDeferred])),
		eventlog.Int("hold", int64(stats.Recovered[spool.LaneHold])),
		eventlog.Int("torn", int64(stats.Torn)),
		eventlog.Int("duplicates", int64(stats.Duplicates)),
	)
	return nil
}

// seqBits is how much of a queue id counts mails; the bits above it hold
// the spool's boot epoch, so a manager never reissues an id of an earlier
// one, whether or not any mail of that one is still in the spool.
const seqBits = 40

// nextIDLocked mints a queue id, "Q" and 16 hex digits; m.mu must be held.
func (m *Manager) nextIDLocked() string {
	m.seq++
	id := [17]byte{'Q'}
	for i, v := 16, m.seq; i > 0; i, v = i-1, v>>4 {
		id[i] = "0123456789ABCDEF"[v&0xf]
	}
	return string(id[:])
}

// spoolItem builds a mail on its own spool frame — data is copied into it
// and stays the caller's — and appends it to the active lane.
func (m *Manager) spoolItem(id, sender string, rcpts []string, data []byte, tc trace.Context) (*Item, error) {
	item := &Item{ID: id, Sender: sender, Rcpts: rcpts, Trace: tc}
	var err error
	if item.frame, err = spool.NewFrame(envOf(item), data); err != nil {
		return nil, err
	}
	item.Data = item.frame.Body()
	return item, m.store.Append(item.frame)
}

// Enqueue accepts one mail: when it returns an id, the mail is durable in
// its mailboxes or in the spool. On a healthy store it makes the mail's
// first delivery attempt itself and writes the spool only if that fails;
// otherwise it spools the mail for the workers. Capacity is checked — and
// a slot reserved — before any spool write, so an overloaded queue fails
// fast with ErrQueueFull instead of paying a durable write it must
// immediately undo. data and rcpts stay the caller's.
func (m *Manager) Enqueue(sender string, rcpts []string, data []byte) (string, error) {
	return m.EnqueueTraced(sender, rcpts, data, trace.Context{})
}

// EnqueueTraced is Enqueue carrying the mail's message-trace context,
// which travels on the Item and persists in the spool envelope. The
// zero context means unsampled and costs nothing.
func (m *Manager) EnqueueTraced(sender string, rcpts []string, data []byte, tc trace.Context) (string, error) {
	if len(rcpts) == 0 {
		return "", fmt.Errorf("queue: no recipients")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	if m.n[stPending]+m.reserved >= m.cfg.IntakeLimit {
		m.mu.Unlock()
		return "", ErrQueueFull
	}
	id := m.nextIDLocked()
	if m.streak == 0 {
		m.running.Add(1) // Close waits for the attempt
		m.mu.Unlock()
		return m.enqueueInline(id, sender, rcpts, data, tc)
	}
	m.reserved++
	m.mu.Unlock()

	item, err := m.spoolItem(id, sender, slices.Clone(rcpts), data, tc)
	m.mu.Lock()
	m.reserved--
	if err == nil && !m.closed {
		m.enqueued.Inc()
		m.transit(item, stPending, 0)
		m.mu.Unlock()
		return id, nil
	}
	m.mu.Unlock()
	if err != nil {
		return "", err
	}
	_ = m.store.Ack(id, spool.LaneActive) // best effort: the caller is told the mail was refused
	return "", ErrClosed
}

// inlineItems recycles the items of inline attempts, which live only for
// the length of one Enqueue call.
var inlineItems = sync.Pool{New: func() any { return new(Item) }}

// enqueueInline makes attempt 1 of a mail on the caller's goroutine; the
// caller holds running for it. A delivered mail never touches the spool.
// A refused one is spooled — still owed recipients only, its attempt
// counted — and then follows the outcome a worker's failed attempt 1 has,
// so it waits out the same backoff in the deferred lane. The caller is
// refused only if that spool write fails too.
func (m *Manager) enqueueInline(id, sender string, rcpts []string, data []byte, tc trace.Context) (string, error) {
	defer m.running.Done()
	item := inlineItems.Get().(*Item)
	*item = Item{ID: id, Sender: sender, Rcpts: rcpts, Data: data, Attempts: 1, Trace: tc}
	took, err := m.attempt(item, time.Now())
	if err == nil {
		m.mu.Lock()
		m.enqueued.Inc()
		m.delivered.Inc()
		m.streak = 0
		m.mu.Unlock()
		m.deliveredEvent(item, took)
		*item = Item{}
		inlineItems.Put(item)
		return id, nil
	}
	item.Rcpts = slices.Clone(item.Rcpts) // the caller's slice is not ours to keep
	var ferr error
	if item.frame, ferr = spool.NewFrame(envOf(item), data); ferr == nil {
		item.Data = item.frame.Body()
		ferr = m.store.Append(item.frame)
	}
	if ferr != nil {
		m.mu.Lock()
		m.streak++ // the store refused even so: new mail goes to the spool first
		m.mu.Unlock()
		return "", ferr
	}
	m.mu.Lock()
	m.enqueued.Inc()
	m.transit(item, stInFlight, 0)
	m.mu.Unlock()
	m.settle(item, took, err)
	return id, nil
}

// envOf snapshots an item's durable envelope.
func envOf(item *Item) spool.Envelope {
	return spool.Envelope{
		ID:       item.ID,
		Sender:   item.Sender,
		Rcpts:    item.Rcpts,
		Attempts: item.Attempts,
		Trace:    item.Trace,
	}
}

// backoffLocked computes the retry delay of a mail that has failed
// attempts times: exponential with jitter and cap; m.mu must be held.
func (m *Manager) backoffLocked(attempts int) time.Duration {
	shift := attempts - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 20 {
		shift = 20
	}
	d := m.cfg.RetryDelay << shift
	if d <= 0 || d > m.cfg.MaxRetryDelay {
		d = m.cfg.MaxRetryDelay
	}
	if j := m.cfg.RetryJitter; j > 0 {
		m.rng ^= m.rng << 13
		m.rng ^= m.rng >> 7
		m.rng ^= m.rng << 17
		frac := float64(m.rng%1024) / 1024 // [0,1)
		d = time.Duration(float64(d) * (1 - j + 2*j*frac))
		if d < time.Millisecond {
			d = time.Millisecond
		}
	}
	return d
}

// live is the number of mails the manager is driving; m.mu must be held.
func (m *Manager) live() int { return m.n[stPending] + m.n[stInFlight] + m.n[stWaiting] }

// transit moves item into state to and is the only place a count changes;
// m.mu must be held. The caller has already done the spool I/O that puts
// the disk copy where to says it is. Entering pending stamps the start of
// the queue wait and hands the mail to one worker; entering waiting arms
// the retry timer for delay. Once the manager is closed a mail can only be
// picked up or let go: its disk copy stays in its lane for the next
// manager's recovery scan.
func (m *Manager) transit(item *Item, to state, delay time.Duration) {
	if m.closed && to != stInFlight {
		to = stNone
	}
	if item.st != stNone {
		m.n[item.st]--
	}
	if to != stNone {
		m.n[to]++
	}
	item.st = to
	switch to {
	case stPending:
		if m.head > len(m.ready)/2 {
			// More picked-up slots than queued mails: slide the queue down
			// so append keeps reusing the array.
			queued := copy(m.ready, m.ready[m.head:])
			clear(m.ready[queued:])
			m.ready, m.head = m.ready[:queued], 0
		}
		item.readyAt = time.Now()
		m.ready = append(m.ready, item)
		m.work.Signal()
	case stWaiting:
		m.timers[item] = time.AfterFunc(delay, func() { m.requeue(item) })
	case stNone:
		if m.live() == 0 {
			m.idle.Broadcast()
		}
	}
}

// next blocks until a mail is ready and returns it, or nil once the
// manager is closed and the ready queue drained; m.mu must be held.
func (m *Manager) next() *Item {
	for m.head == len(m.ready) {
		if m.closed {
			return nil
		}
		m.work.Wait()
	}
	item := m.ready[m.head]
	m.ready[m.head] = nil
	m.head++
	return item
}

func (m *Manager) worker() {
	defer m.running.Done()
	for {
		m.mu.Lock()
		item := m.next()
		if item == nil {
			m.mu.Unlock()
			return
		}
		m.transit(item, stInFlight, 0)
		m.mu.Unlock()

		start := time.Now()
		m.waitHist.ObserveDuration(start.Sub(item.readyAt))
		if item.Trace.Valid() {
			// The intake wait, as the mail's "queue" span.
			qsp := m.cfg.Tracer.NewSpan(item.Trace)
			m.cfg.Tracer.FinishAt(qsp, trace.MStageQueue, item.readyAt, start, "")
		}
		item.Attempts++
		took, err := m.attempt(item, start)
		m.settle(item, took, err)
	}
}

// attempt calls the Deliverer once for item, whose Attempts already counts
// the call, and times it from start. The delivery span's context rides on
// the item for the duration of the call, so the deliverer's own spans
// (store) parent under it; the original context is restored before the
// envelope is persisted again.
func (m *Manager) attempt(item *Item, start time.Time) (time.Duration, error) {
	dsp := m.cfg.Tracer.NewSpan(item.Trace)
	saved := item.Trace
	if dsp.Valid() {
		item.Trace = dsp
	}
	err := m.cfg.Deliverer.Deliver(item)
	item.Trace = saved
	took := time.Since(start)
	m.delivHist.ObserveDuration(took)
	m.cfg.Tracer.FinishAt(dsp, trace.MStageDelivery, start, time.Now(), "")
	return took, err
}

// deliveredEvent emits queue.delivered for a mail whose attempt took took.
func (m *Manager) deliveredEvent(item *Item, took time.Duration) {
	m.cfg.Events.Debug("queue.delivered", 0,
		eventlog.Str("id", item.ID),
		eventlog.Int("attempts", int64(item.Attempts)),
		eventlog.Dur("took", took),
	)
}

// settle carries out the outcome of an in-flight, spooled item's attempt:
// acked when delivered, deferred with backoff or exhausted when refused,
// left in the active lane when the manager closed meanwhile. Every failed
// attempt lengthens the streak and every success ends it.
func (m *Manager) settle(item *Item, took time.Duration, err error) {
	m.mu.Lock()
	closed := m.closed
	retry := err != nil && !closed && item.Attempts < m.cfg.MaxAttempts
	var delay time.Duration
	switch {
	case err == nil:
		m.streak = 0
	case !closed:
		m.streak++
		if retry {
			delay = m.backoffLocked(item.Attempts)
		}
	}
	m.mu.Unlock()

	// The mail stays in flight while its disk copy follows the outcome.
	to := stNone
	switch {
	case err == nil:
		m.delivered.Inc()
		m.ack(item)
		m.deliveredEvent(item, took)
	case retry:
		m.deferred.Inc()
		m.cfg.Events.Info("queue.deferred", 0,
			eventlog.Str("id", item.ID),
			eventlog.Int("attempts", int64(item.Attempts)),
			eventlog.Dur("delay", delay),
			eventlog.Str("err", err.Error()),
		)
		m.deferItem(item, delay)
		to = stWaiting
	case !closed:
		m.exhaust(item, err)
	default:
		// Failed during shutdown: the mail stays in the active lane for
		// the next manager's recovery scan.
	}
	m.mu.Lock()
	m.transit(item, to, delay)
	m.mu.Unlock()
}

// spoolError reports a failed spool operation on a mail the queue keeps
// driving from memory.
func (m *Manager) spoolError(id string, err error) {
	m.cfg.Events.Warn("queue.spool_error", 0,
		eventlog.Str("id", id), eventlog.Str("err", err.Error()))
}

// ack removes a finished mail's disk copy from the active lane: the item's
// last spool operation, so its frame goes back for reuse.
func (m *Manager) ack(item *Item) {
	if err := m.store.Ack(item.ID, spool.LaneActive); err != nil {
		m.spoolError(item.ID, err)
	}
	item.frame.Release()
}

// laneEvent emits the queue.lane event for a disk copy that changed lanes.
func (m *Manager) laneEvent(item *Item, from, to spool.Lane) {
	m.cfg.Events.Debug("queue.lane", 0,
		eventlog.Str("id", item.ID),
		eventlog.Str("from", string(from)),
		eventlog.Str("to", string(to)),
	)
}

// moveLane relinks an item's disk copy.
func (m *Manager) moveLane(item *Item, from, to spool.Lane) {
	if err := m.store.Move(item.ID, from, to); err != nil {
		m.spoolError(item.ID, err)
	}
	m.laneEvent(item, from, to)
}

// deferItem persists an item's updated envelope (attempts, backoff
// position, shrunk recipient set) into the deferred lane.
func (m *Manager) deferItem(item *Item, delay time.Duration) {
	env := envOf(item)
	env.NotBefore = time.Now().Add(delay)
	err := item.frame.SetEnvelope(env)
	if err == nil {
		err = m.store.Rewrite(item.frame, spool.LaneActive, spool.LaneDeferred)
	}
	if err != nil {
		m.spoolError(item.ID, err)
	}
	m.laneEvent(item, spool.LaneActive, spool.LaneDeferred)
}

// requeue runs when a waiting mail's timer fires: the disk copy moves back
// to the active lane, then the mail is pending again.
func (m *Manager) requeue(item *Item) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return // Close let the mail go; its disk copy stays in the deferred lane
	}
	delete(m.timers, item)
	m.running.Add(1)
	m.mu.Unlock()
	defer m.running.Done()
	m.moveLane(item, spool.LaneDeferred, spool.LaneActive)
	m.mu.Lock()
	m.transit(item, stPending, 0)
	m.mu.Unlock()
}

// hold parks a mail nothing more can be done for in the hold lane, where
// it stays (across restarts) until operator action; its frame is released.
func (m *Manager) hold(item *Item, err error) {
	m.held.Inc()
	m.moveLane(item, spool.LaneActive, spool.LaneHold)
	m.cfg.Events.Warn("queue.hold", 0,
		eventlog.Str("id", item.ID),
		eventlog.Str("err", err.Error()),
	)
	item.frame.Release()
}

// exhaust handles a mail that used its last attempt: synthesize a DSN
// for the sender, or park the mail in the hold lane when there is no
// bounce hook or the mail is itself an undeliverable bounce. The bounce is
// spooled before the original is acked, so a crash between the two can
// duplicate a DSN but never lose the mail; if the bounce cannot be spooled
// the original is held, not acked. The DSN is pending before the original
// leaves in-flight, so the queue never looks idle between the two.
func (m *Manager) exhaust(item *Item, derr error) {
	if m.cfg.Bounce == nil {
		m.hold(item, derr)
		return
	}
	reason := fmt.Sprintf("delivery failed after %d attempts: %v", item.Attempts, derr)
	brcpts, bdata, ok := m.cfg.Bounce(item.ID, item.Sender, item.Rcpts, item.Data, reason)
	if !ok {
		// A bounce that itself bounced: hold it rather than loop.
		m.hold(item, derr)
		return
	}
	m.mu.Lock()
	closed := m.closed
	var bid string
	if !closed {
		bid = m.nextIDLocked()
	}
	m.mu.Unlock()
	if closed {
		// Too late to inject the DSN; the original stays spooled for the
		// next manager, which will retry and bounce it then.
		return
	}
	bitem, err := m.spoolItem(bid, "", brcpts, bdata, trace.Context{})
	if err != nil {
		m.spoolError(bid, err)
		m.hold(item, derr)
		return
	}
	m.bounced.Inc()
	m.ack(item)
	m.cfg.Events.Info("queue.bounce", 0,
		eventlog.Str("id", item.ID),
		eventlog.Str("bounce_id", bid),
		eventlog.Str("to", strings.Join(brcpts, ",")),
		eventlog.Str("err", derr.Error()),
	)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return // the DSN is spooled in the active lane; recovery will send it
	}
	m.enqueued.Inc()
	m.transit(bitem, stPending, 0)
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Enqueued:  m.enqueued.Value(),
		Delivered: m.delivered.Value(),
		Deferred:  m.deferred.Value(),
		Bounced:   m.bounced.Value(),
		Held:      m.held.Value(),
		InFlight:  m.n[stInFlight],
		Pending:   m.n[stPending],
		Waiting:   m.n[stWaiting],
	}
}

// LaneDepth reports the number of spooled mails in a lane.
func (m *Manager) LaneDepth(lane spool.Lane) int { return m.store.LaneDepth(lane) }

// WaitIdle blocks until no mail is pending, in flight, or deferred, or
// until timeout; it reports whether the queue went idle.
func (m *Manager) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() { m.idle.Broadcast() })
	defer wake.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.live() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		m.idle.Wait()
	}
	return true
}

// Close stops intake, cancels deferred retries (their disk copies stay
// parked for the next manager's recovery), lets the workers drain the
// ready queue and inline attempts finish, and returns when nothing of this
// manager touches the spool or calls the Deliverer any more.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.closed = true
	for item, t := range m.timers {
		t.Stop()
		m.transit(item, stNone, 0)
	}
	m.timers = nil
	m.work.Broadcast()
	m.mu.Unlock()
	m.running.Wait()
	return nil
}
