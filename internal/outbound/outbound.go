// Package outbound implements the SMTP client side of the queue: a
// Deliverer that resolves a destination domain's MX records, dials the
// candidates in preference order, and runs one SMTP transaction per
// destination with per-command deadlines. It is the "smtp client"
// process of the paper's Figure 2 architecture — the piece that turns a
// spooled queue item into a remote delivery, and the piece whose
// failures feed the per-destination backoff scheduler and, eventually,
// the DSN generator.
package outbound

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/queue"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// MX is one mail-exchanger candidate for a destination domain.
type MX struct {
	Host string
	Pref uint16
}

// Resolver turns a destination domain into MX candidates.
type Resolver interface {
	LookupMX(ctx context.Context, domain string) ([]MX, error)
}

// ---------------------------------------------------------------------------
// Static resolver

// Static is a fixed MX table for simulations and tests: deterministic,
// no sockets. Unknown domains resolve to nothing and fail delivery.
type Static struct {
	table atomic.Value // map[string][]MX, copy-on-write
}

// NewStatic returns an empty static resolver.
func NewStatic() *Static {
	s := &Static{}
	s.table.Store(map[string][]MX{})
	return s
}

// Set replaces domain's MX candidates.
func (s *Static) Set(domain string, mxs ...MX) {
	old, _ := s.table.Load().(map[string][]MX)
	next := make(map[string][]MX, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[strings.ToLower(domain)] = append([]MX(nil), mxs...)
	s.table.Store(next)
}

// LookupMX implements Resolver.
func (s *Static) LookupMX(_ context.Context, domain string) ([]MX, error) {
	m, _ := s.table.Load().(map[string][]MX)
	mxs, ok := m[strings.ToLower(domain)]
	if !ok {
		return nil, fmt.Errorf("outbound: no MX table entry for %q", domain)
	}
	return append([]MX(nil), mxs...), nil
}

// ---------------------------------------------------------------------------
// Deliverer

const (
	// smtpPort is appended to MX hosts that carry no port (simulations
	// use loopback hosts with explicit ports).
	smtpPort = "25"
	// resolveTimeout bounds each MX lookup.
	resolveTimeout = 5 * time.Second
)

// Config parameterizes a Deliverer.
type Config struct {
	// Resolver maps destination domains to MX candidates; required.
	Resolver Resolver
	// Helo is the EHLO/HELO name presented to remote servers (default
	// "localhost").
	Helo string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// CommandTimeout bounds each SMTP command round trip (default 30s),
	// applied via smtp.WithCommandTimeout.
	CommandTimeout time.Duration
	// Registry receives outbound metrics; nil means a private registry.
	Registry *metrics.Registry
	// Events, if non-nil, receives outbound.delivered / outbound.fail.
	Events *eventlog.Log
	// Tracer, if non-nil, records an "outbound" message-lifecycle span
	// per SMTP transaction (note: the MX host). When the item carries a
	// trace context and the remote peer advertises XTRACE, the context
	// is forwarded as a MAIL parameter so the next hop's spans join the
	// same trace; non-supporting peers see a plain MAIL FROM.
	Tracer *trace.MessageRecorder
}

// Deliverer delivers queue items to their destination domains over
// SMTP. It implements queue.Deliverer.
type Deliverer struct {
	cfg Config

	attempts  *metrics.Counter
	delivered *metrics.Counter
	failures  *metrics.Counter
	failovers *metrics.Counter
}

var _ queue.Deliverer = (*Deliverer)(nil)

// New returns a Deliverer.
func New(cfg Config) (*Deliverer, error) {
	if cfg.Resolver == nil {
		return nil, errors.New("outbound: Resolver is required")
	}
	if cfg.Helo == "" {
		cfg.Helo = "localhost"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.CommandTimeout <= 0 {
		cfg.CommandTimeout = 30 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d := &Deliverer{
		cfg:       cfg,
		attempts:  reg.Counter("outbound_attempts_total"),
		delivered: reg.Counter("outbound_delivered_total"),
		failures:  reg.Counter("outbound_failures_total"),
		failovers: reg.Counter("outbound_mx_failover_total"),
	}
	return d, nil
}

func (d *Deliverer) dial(addr string) (*smtp.Client, error) {
	return smtp.Dial(addr, d.cfg.DialTimeout,
		smtp.WithCommandTimeout(d.cfg.CommandTimeout))
}

// Deliver implements queue.Deliverer. Recipients are grouped by
// destination domain and each group gets its own MX walk and SMTP
// transaction. On partial failure it shrinks item.Rcpts to the
// recipients still owed delivery — the queue persists that shrunk
// envelope on deferral, so retries (and post-crash recoveries) never
// redeliver to a domain that already accepted the mail.
func (d *Deliverer) Deliver(item *queue.Item) error {
	groups, order := groupByDomain(item.Rcpts)
	var failed []string
	var errs []string
	for _, domain := range order {
		rcpts := groups[domain]
		if err := d.deliverDomain(domain, item.Sender, rcpts, item.Data, item.Trace); err != nil {
			failed = append(failed, rcpts...)
			errs = append(errs, err.Error())
			continue
		}
		d.cfg.Events.Debug("outbound.delivered", 0,
			eventlog.Str("id", item.ID),
			eventlog.Str("dest", domain),
			eventlog.Int("rcpts", int64(len(rcpts))),
		)
	}
	if len(failed) == 0 {
		return nil
	}
	item.Rcpts = failed
	return fmt.Errorf("outbound: %s", strings.Join(errs, "; "))
}

// deliverDomain walks domain's MX candidates in preference order and
// runs one transaction against the first that works.
func (d *Deliverer) deliverDomain(domain, sender string, rcpts []string, data []byte, tc trace.Context) error {
	ctx, cancel := context.WithTimeout(context.Background(), resolveTimeout)
	mxs, err := d.cfg.Resolver.LookupMX(ctx, domain)
	cancel()
	if err != nil {
		d.attempts.Inc()
		d.fail(domain, err)
		return err
	}
	sort.SliceStable(mxs, func(i, j int) bool { return mxs[i].Pref < mxs[j].Pref })
	var last error
	for i, mx := range mxs {
		if i > 0 {
			d.failovers.Inc()
		}
		d.attempts.Inc()
		if err := d.transact(mx.Host, sender, rcpts, data, tc); err != nil {
			last = err
			d.fail(domain, fmt.Errorf("mx %s: %w", mx.Host, err))
			continue
		}
		d.delivered.Inc()
		return nil
	}
	if last == nil {
		last = fmt.Errorf("outbound: no MX candidates for %q", domain)
		d.fail(domain, last)
	}
	return last
}

// transact runs one SMTP transaction against host. EHLO is tried first
// (falling back to HELO) so the remote's extensions are known; when the
// item is traced and the peer supports XTRACE the outbound span's
// context crosses the wire with MAIL FROM.
func (d *Deliverer) transact(host, sender string, rcpts []string, data []byte, tc trace.Context) error {
	addr := host
	if _, _, err := net.SplitHostPort(host); err != nil {
		addr = net.JoinHostPort(host, smtpPort)
	}
	start := time.Now()
	sp := d.cfg.Tracer.NewSpan(tc)
	c, err := d.dial(addr)
	if err != nil {
		return err
	}
	if err := c.Hello(d.cfg.Helo); err != nil {
		_ = c.Abort()
		return err
	}
	accepted, err := c.SendTraced(sender, rcpts, data, sp)
	if err != nil {
		_ = c.Abort()
		return err
	}
	_ = c.Quit()
	d.cfg.Tracer.Finish(sp, trace.MStageOutbound, start, host)
	if accepted == 0 {
		return fmt.Errorf("all %d recipients rejected by %s", len(rcpts), host)
	}
	return nil
}

// fail records one failed delivery attempt against a destination.
func (d *Deliverer) fail(domain string, err error) {
	d.failures.Inc()
	d.cfg.Events.Info("outbound.fail", 0,
		eventlog.Str("dest", domain),
		eventlog.Str("err", err.Error()),
	)
}

// groupByDomain buckets recipients by destination domain, preserving
// first-seen domain order. Recipients with no domain part group under
// "" (delivered to the implicit local exchanger — simulations resolve
// it explicitly).
func groupByDomain(rcpts []string) (map[string][]string, []string) {
	groups := make(map[string][]string)
	var order []string
	for _, r := range rcpts {
		dom := smtp.Domain(r)
		if _, ok := groups[dom]; !ok {
			order = append(order, dom)
		}
		groups[dom] = append(groups[dom], r)
	}
	return groups, order
}
