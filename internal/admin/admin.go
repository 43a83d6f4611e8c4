// Package admin serves the operational side channel of a running mail
// server: Prometheus-text metrics from a metrics.Registry, pprof
// profiling, and the connection span stream. cmd/smtpd
// mounts it on the -admin address, away from the SMTP port, so scraping
// and profiling never compete with the accept path.
package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/eventlog"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Handler routes the admin endpoints:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/pprof  the net/http/pprof family
//	/spans        the span recorder's retained events as text lines
//	              (absent when no recorder is configured)
//	/events       the event log's ring tail as text lines
//	              (absent without WithEvents)
//	/workload     the telemetry tracker's spam-weather snapshot as JSON
//	              (absent without WithWorkload)
//	/traces       recent message-trace ids (absent without WithTrace)
//	/trace/{id}   one message trace's spans as mspan text lines
//	              (absent without WithTrace)
//
// Construct with NewHandler; the zero value is not usable.
type Handler struct {
	mux *http.ServeMux
}

// HandlerOption extends a Handler with optional endpoints (see
// NewHandler).
type HandlerOption func(*http.ServeMux)

// WithEvents mounts /events: the event log's retained ring as text
// lines, oldest first, filterable by query parameters:
//
//	level  minimum level (debug|info|warn|error)
//	conn   exact connection id
//	name   exact event name
//	since  only events with seq greater than this (a tail cursor —
//	       cmd/traceinfo -follow polls with the last seq it saw)
//	max    at most this many events (the most recent ones)
func WithEvents(log *eventlog.Log) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			f := eventlog.Filter{}
			q := r.URL.Query()
			if s := q.Get("level"); s != "" {
				lv, err := eventlog.ParseLevel(s)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				f.MinLevel = lv
			}
			if s := q.Get("conn"); s != "" {
				n, err := strconv.ParseUint(s, 10, 64)
				if err != nil {
					http.Error(w, "bad conn id", http.StatusBadRequest)
					return
				}
				f.Conn = n
			}
			f.Name = q.Get("name")
			if s := q.Get("since"); s != "" {
				n, err := strconv.ParseUint(s, 10, 64)
				if err != nil {
					http.Error(w, "bad since cursor", http.StatusBadRequest)
					return
				}
				f.AfterSeq = n
			}
			if s := q.Get("max"); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil || n < 0 {
					http.Error(w, "bad max", http.StatusBadRequest)
					return
				}
				f.Max = n
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			var buf []byte
			for _, e := range log.Tail(f) {
				buf = e.AppendText(buf[:0])
				buf = append(buf, '\n')
				if _, err := w.Write(buf); err != nil {
					return // client gone mid-write
				}
			}
		})
	}
}

// WithTrace mounts the message-trace endpoints:
//
//	/traces       recent trace ids retained by the recorder, newest
//	              first, one 32-hex id per line (?max= caps the count)
//	/trace/{id}   every retained span of one trace as mspan text lines
//	              — the unit a cluster aggregator fetches from each
//	              node and stitches by trace id
func WithTrace(rec *trace.MessageRecorder) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
			max := 0
			if s := r.URL.Query().Get("max"); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil || n < 0 {
					http.Error(w, "bad max", http.StatusBadRequest)
					return
				}
				max = n
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, id := range rec.TraceIDs(max) {
				if _, err := fmt.Fprintln(w, id); err != nil {
					return // client gone mid-write
				}
			}
		})
		mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
			id := r.URL.Path[len("/trace/"):]
			hi, lo, ok := trace.ParseTraceID(id)
			if !ok {
				http.Error(w, "bad trace id (want 32 hex digits)", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rec.WriteTrace(w, hi, lo) //nolint:errcheck // client gone mid-write
		})
	}
}

// WithWorkload mounts /workload: the tracker's spam-weather snapshot
// (bounce ratios, handoff savings, DNSBL locality, top talkers) as a
// JSON document — the feed cmd/mailtop renders.
func WithWorkload(tr *telemetry.Tracker) HandlerOption {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/workload", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(tr.Snapshot()) //nolint:errcheck // client gone mid-write
		})
	}
}

// NewHandler returns a handler exposing reg and, when non-nil, spans,
// plus any optional endpoints.
func NewHandler(reg *metrics.Registry, spans *trace.SpanRecorder, opts ...HandlerOption) *Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-write
	})
	// The pprof routes are registered explicitly rather than through the
	// package's init-time DefaultServeMux side effect, so the SMTP-facing
	// process never exposes them anywhere but here.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if spans != nil {
		mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			spans.WriteTo(w) //nolint:errcheck // client gone mid-write
		})
	}
	for _, o := range opts {
		o(mux)
	}
	return &Handler{mux: mux}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}
