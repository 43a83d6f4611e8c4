// Package delivery implements the local delivery agent of the paper's
// Figure 2 (postfix's local(8)): it takes items from the queue manager,
// resolves every recipient through the access database (aliases
// included), deduplicates the target mailboxes, and writes the mail
// through a mailstore.Store — one call per mail, so a multi-recipient
// mail reaches an MFS store as a single NWrite (§6.1).
package delivery

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/eventlog"
	"repro/internal/mailstore"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// Agent is a queue.Deliverer writing into a mailbox store. It is safe
// for concurrent use by the queue manager's delivery workers; the stat
// counters are registry-vended atomics so the per-mail hot path takes no
// lock here.
type Agent struct {
	db     *access.DB
	store  mailstore.Store
	reg    *metrics.Registry
	events *eventlog.Log
	tracer *trace.MessageRecorder

	mails          *metrics.Counter
	rcptDeliveries *metrics.Counter
	droppedRcpts   *metrics.Counter
	redelivered    *metrics.Counter
	commitHist     *metrics.Histogram
}

var _ queue.Deliverer = (*Agent)(nil)

// Stats counts delivery outcomes.
type Stats struct {
	// Mails is the number of queue items processed successfully.
	Mails int64
	// RcptDeliveries is the number of (mail, mailbox) pairs written.
	RcptDeliveries int64
	// DroppedRcpts counts recipients that no longer resolved at delivery
	// time (e.g. removed between RCPT and delivery).
	DroppedRcpts int64
	// Redelivered counts mails committed on an attempt after their first:
	// the retry of a deferral, in this process or replayed from the
	// spool's deferred lane after a crash. MFS commits these idempotently,
	// so a redelivery never duplicates a mailbox copy.
	Redelivered int64
}

// AgentOption configures an Agent (see NewAgent).
type AgentOption func(*Agent)

// WithRegistry directs the agent's metrics (delivery counters and the
// delivery_commit_seconds histogram, labelled by store) into r. The
// default is a private registry.
func WithRegistry(r *metrics.Registry) AgentOption {
	return func(a *Agent) { a.reg = r }
}

// WithEventLog emits a delivery.commit debug event per store write
// (queue id, mailbox fan-out, commit time) and a delivery.failed
// warning per failed commit into log. Nil disables emission (the
// default).
func WithEventLog(log *eventlog.Log) AgentOption {
	return func(a *Agent) { a.events = log }
}

// WithMessageTracer records a "store" message-lifecycle span per store
// commit into rec, parented under the queue's delivery span riding on
// item.Trace. Nil disables (the default).
func WithMessageTracer(rec *trace.MessageRecorder) AgentOption {
	return func(a *Agent) { a.tracer = rec }
}

// NewAgent returns a delivery agent writing through store, resolving
// recipients against db.
func NewAgent(db *access.DB, store mailstore.Store, opts ...AgentOption) *Agent {
	a := &Agent{db: db, store: store}
	for _, o := range opts {
		o(a)
	}
	if a.reg == nil {
		a.reg = metrics.NewRegistry()
	}
	name := store.Name()
	a.mails = a.reg.Counter("delivery_mails_total", "store", name)
	a.rcptDeliveries = a.reg.Counter("delivery_rcpt_deliveries_total", "store", name)
	a.droppedRcpts = a.reg.Counter("delivery_dropped_rcpts_total", "store", name)
	a.redelivered = a.reg.Counter("delivery_redelivered_total", "store", name)
	a.commitHist = a.reg.Histogram("delivery_commit_seconds", metrics.LatencyBounds(), "store", name)
	return a
}

// Registry returns the registry holding the agent's metrics.
func (a *Agent) Registry() *metrics.Registry { return a.reg }

// mailboxLists recycles Deliver's resolved mailbox lists: a store does
// not keep the recipient slice past its Deliver call.
var mailboxLists = sync.Pool{New: func() any { return new([]string) }}

// Deliver implements queue.Deliverer.
func (a *Agent) Deliver(item *queue.Item) error {
	// Resolve to mailbox names (local parts of canonical addresses),
	// deduplicating: two aliases of one user get a single copy, like
	// postfix's duplicate elimination (a scan: a mail has few recipients,
	// ham nearly always one).
	list := mailboxLists.Get().(*[]string)
	defer func() {
		clear(*list)
		mailboxLists.Put(list)
	}()
	mailboxes := (*list)[:0]
	dropped := int64(0)
	for _, rcpt := range item.Rcpts {
		canonical, ok := a.db.Resolve(rcpt)
		if !ok {
			dropped++
			continue
		}
		box := smtp.LocalPart(canonical)
		if !slices.Contains(mailboxes, box) {
			mailboxes = append(mailboxes, box)
		}
	}
	if len(mailboxes) == 0 {
		// Nothing deliverable; succeed so the queue drops the item
		// instead of retrying a permanent condition.
		a.droppedRcpts.Add(dropped)
		return nil
	}
	start := time.Now()
	*list = mailboxes // keep the grown array for the next mail
	err := a.store.Deliver(item.ID, mailboxes, item.Data)
	took := time.Since(start)
	a.commitHist.ObserveDuration(took)
	sp := a.tracer.NewSpan(item.Trace)
	a.tracer.FinishAt(sp, trace.MStageStore, start, time.Now(), a.store.Name())
	if err != nil {
		a.events.Warn("delivery.failed", 0,
			eventlog.Str("id", item.ID),
			eventlog.Str("err", err.Error()),
		)
		return fmt.Errorf("delivery: %s: %w", item.ID, err)
	}
	a.events.Debug("delivery.commit", 0,
		eventlog.Str("id", item.ID),
		eventlog.Int("mailboxes", int64(len(mailboxes))),
		eventlog.Dur("took", took),
	)
	a.mails.Inc()
	a.rcptDeliveries.Add(int64(len(mailboxes)))
	a.droppedRcpts.Add(dropped)
	// The queue counts this attempt before calling Deliver.
	if item.Attempts > 1 {
		a.redelivered.Inc()
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	return Stats{
		Mails:          a.mails.Value(),
		RcptDeliveries: a.rcptDeliveries.Value(),
		DroppedRcpts:   a.droppedRcpts.Value(),
		Redelivered:    a.redelivered.Value(),
	}
}
