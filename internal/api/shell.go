// The HTTP shell a node (Server) and the cluster router both hang their
// handlers on: the mux, per-endpoint accounting behind one route wrapper,
// the drain gate, the response writer that classifies each request, the
// listen/serve/drain lifecycle and the Prometheus text writer. What a
// server adds on top is only what is its own — a node its tenant
// resolution, fair gate, hub and pull turns; the router its placement,
// fan-out and replication.

package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/tenant"
)

// maxBody bounds every request body. Every request type is a few hundred
// bytes of JSON; anything near the bound is not a request.
const maxBody = 1 << 20

// endpointMetrics is one endpoint's counter set (see EndpointStats).
type endpointMetrics struct {
	requests     atomic.Int64
	rejections   atomic.Int64
	errors       atomic.Int64
	unauthorized atomic.Int64
	unavailable  atomic.Int64
	clientAborts atomic.Int64
	inFlight     atomic.Int64
	observed     atomic.Int64 // requests included in the latency sums
	latencyNs    atomic.Int64
	maxNs        atomic.Int64
}

func (m *endpointMetrics) observe(d time.Duration) {
	ns := d.Nanoseconds()
	m.observed.Add(1)
	m.latencyNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (m *endpointMetrics) stats() EndpointStats {
	st := EndpointStats{
		Requests:     m.requests.Load(),
		Rejections:   m.rejections.Load(),
		Errors:       m.errors.Load(),
		Unauthorized: m.unauthorized.Load(),
		Unavailable:  m.unavailable.Load(),
		ClientAborts: m.clientAborts.Load(),
		InFlight:     m.inFlight.Load(),
		MaxMs:        float64(m.maxNs.Load()) / 1e6,
	}
	if n := m.observed.Load(); n > 0 {
		st.AvgMs = float64(m.latencyNs.Load()) / float64(n) / 1e6
	}
	return st
}

// Shell is one HTTP server's frame. Create with NewShell, mount endpoints
// with Route before serving, start with Start (or mount Handler
// yourself), stop with Shutdown.
type Shell struct {
	what     string // "server" or "router": names the drain-time 503
	mux      *http.ServeMux
	metrics  map[string]*endpointMetrics
	draining atomic.Bool

	// baseCtx is every served request's base context; it ends when the
	// drain does, so stragglers past Shutdown's deadline stop promptly.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	httpSrv  *http.Server
	serveErr chan error
}

// NewShell returns an empty shell; what ("server", "router") names it in
// the 503 a draining shell answers.
func NewShell(what string) *Shell {
	s := &Shell{what: what, mux: http.NewServeMux(), metrics: map[string]*endpointMetrics{}}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	return s
}

// Route mounts one instrumented endpoint: request, in-flight and latency
// accounting, the drain gate, the request-body bound, and outcome
// classification from what the handler wrote. Every arrival is counted,
// drain-time 503s included.
func (s *Shell) Route(name, pattern string, fn func(*Response, *http.Request)) {
	m := &endpointMetrics{}
	s.metrics[name] = m
	s.mux.HandleFunc(pattern, func(rw http.ResponseWriter, r *http.Request) {
		m.requests.Add(1)
		// healthz must answer during drain (it reports the drain) and
		// metrics must stay scrapable while the server winds down.
		if s.draining.Load() && name != "healthz" && name != "metrics" {
			m.unavailable.Add(1)
			// A drain is transient — the replacement instance (or the
			// restarted one) is seconds away — so the 503 carries the same
			// backoff hint a 429 does instead of leaving clients to guess.
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, s.what+" draining", http.StatusServiceUnavailable)
			return
		}
		r.Body = http.MaxBytesReader(rw, r.Body, maxBody)
		w := &Response{ResponseWriter: rw, status: http.StatusOK}
		m.inFlight.Add(1)
		t0 := time.Now()
		// Deferred, not sequential: a panicking handler (recovered by
		// net/http per connection) must not leak an in-flight count or
		// skip its accounting.
		defer func() {
			m.inFlight.Add(-1)
			d := time.Since(t0)
			if w.status == http.StatusUnauthorized {
				m.unauthorized.Add(1)
				return
			}
			switch w.Outcome(r) {
			case tenant.OutcomeRejected:
				m.rejections.Add(1)
			case tenant.OutcomeAborted:
				m.clientAborts.Add(1)
			case tenant.OutcomeError:
				m.errors.Add(1)
				m.observe(d)
			default:
				m.observe(d)
			}
		}()
		fn(w, r)
	})
}

// Handler returns the routed, instrumented handler — for mounting under a
// caller-owned http.Server or a test mux. Requests served this way do not
// observe Shutdown's context cancellation (they still observe the drain
// flag); prefer Start for the full lifecycle.
func (s *Shell) Handler() http.Handler { return s.mux }

// Draining reports whether Shutdown has begun.
func (s *Shell) Draining() bool { return s.draining.Load() }

// Metrics returns a snapshot of the per-endpoint counters, keyed by
// endpoint name — reachable even while the shell drains (when /v1/stats
// itself answers 503).
func (s *Shell) Metrics() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(s.metrics))
	for name, m := range s.metrics {
		out[name] = m.stats()
	}
	return out
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// in the background until Shutdown. It returns the bound address.
func (s *Shell) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.httpSrv.Serve(lis) }()
	return lis.Addr(), nil
}

// Shutdown drains gracefully: new requests are refused (503, and the
// listener closes), beforeDrain ends whatever would keep a request from
// returning on its own, and in-flight requests run to completion. If ctx
// expires first the remaining requests' contexts are canceled and their
// connections closed. Safe to call once.
func (s *Shell) Shutdown(ctx context.Context, beforeDrain func()) error {
	s.draining.Store(true)
	beforeDrain()
	if s.httpSrv == nil {
		s.cancelBase()
		return nil
	}
	err := s.httpSrv.Shutdown(ctx)
	// Cancel the base context either way: on clean drain every request
	// has returned and this is a no-op; on deadline it aborts stragglers
	// so their pool work stops promptly.
	s.cancelBase()
	if err != nil {
		_ = s.httpSrv.Close()
	}
	if serveErr := <-s.serveErr; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// Response is the writer every routed handler receives. It records what
// the shell's accounting needs — the status, whether anything was written
// at all (an empty response to a dead context is a client abort, not a
// 200), the body bytes — and writes NDJSON streams.
type Response struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  int64
	// line holds the NDJSON line being written, reused line to line; nil
	// until the first line sends the header.
	line []byte
	// lineFailed marks a stream ended by a line that could not be encoded.
	lineFailed bool
	// MidStreamErr marks a stream that failed server-side after its 200
	// header went out; the handler sets it before the in-band error line.
	MidStreamErr bool
}

func (w *Response) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *Response) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Wrote reports whether the handler has written a header or a body byte.
func (w *Response) Wrote() bool { return w.wrote }

// Bytes is the count of body bytes written so far.
func (w *Response) Bytes() int64 { return w.bytes }

// Line writes v as one NDJSON line (line.go's codec; a []byte, a line
// already encoded, goes out as it is) with one Write and flushes it, so a long stream
// reaches the client as it is produced. The first line sends the 200
// header. A line that cannot be encoded — a NaN or ±Inf float — ends the
// stream as a server failure: its in-band error line goes out instead,
// every later line is dropped, and Line reports false, so the handler
// returns and the response ends.
func (w *Response) Line(v any) bool {
	if w.lineFailed {
		return false
	}
	if w.line == nil {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	b, err := appendLine(w.line[:0], v)
	if err != nil {
		w.MidStreamErr, w.lineFailed = true, true
		b, _ = appendLine(b, QueryLine{Error: "api: encoding response line: " + err.Error()})
	}
	w.line = b
	_, _ = w.Write(b)
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	return !w.lineFailed
}

// Outcome classifies the finished request, for the endpoint counters and
// a node's per-tenant accounting alike.
func (w *Response) Outcome(r *http.Request) tenant.Outcome {
	switch {
	case w.status == http.StatusTooManyRequests:
		return tenant.OutcomeRejected
	case !w.wrote && r.Context().Err() != nil:
		// The handler wrote nothing and the request context is dead: the
		// client vanished (mid-body, or while parked in the admission
		// gate). Not a 200, not an error — counted apart and excluded from
		// the latency summaries.
		return tenant.OutcomeAborted
	case w.status >= 500 || w.MidStreamErr:
		return tenant.OutcomeError
	}
	return tenant.OutcomeOK
}

// WriteJSON writes one JSON response body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ReadJSON decodes the request body into v, answering 400 on malformed
// input and 413 on a body past the shell's bound. An empty body decodes
// to the zero value.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return true
	}
	code := http.StatusBadRequest
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, fmt.Sprintf("bad request body: %v", err), code)
	return false
}

// Exposition builds one Prometheus text body (format 0.0.4) against the
// stdlib — the repo takes no dependencies.
type Exposition struct{ b []byte }

// Head opens a metric family.
func (e *Exposition) Head(name, typ, help string) {
	e.b = fmt.Appendf(e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample; labels is empty or Label pairs joined by commas.
func (e *Exposition) Sample(name, labels string, v float64) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	e.b = fmt.Appendf(e.b, "%s %g\n", name, v)
}

// Value writes a family of one unlabelled sample.
func (e *Exposition) Value(name, typ, help string, v float64) {
	e.Head(name, typ, help)
	e.Sample(name, "", v)
}

// Label renders one name="value" pair, the value escaped as the
// exposition format requires (backslash, double quote, newline) — once.
func Label(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Endpoints writes the per-endpoint counter families as
// <prefix>_<counter>_total{endpoint=...}, endpoints in name order.
func (e *Exposition) Endpoints(prefix string, stats map[string]EndpointStats) {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, c := range []struct {
		name, help string
		value      func(EndpointStats) int64
	}{
		{"requests", "Requests received, by endpoint.", func(st EndpointStats) int64 { return st.Requests }},
		{"rejections", "429 responses, by endpoint.", func(st EndpointStats) int64 { return st.Rejections }},
		{"errors", "5xx responses and mid-stream failures, by endpoint.", func(st EndpointStats) int64 { return st.Errors }},
		{"unauthorized", "401 responses to unknown API keys, by endpoint.", func(st EndpointStats) int64 { return st.Unauthorized }},
		{"unavailable", "503 responses while draining, by endpoint.", func(st EndpointStats) int64 { return st.Unavailable }},
		{"client_aborts", "Requests whose client vanished, by endpoint.", func(st EndpointStats) int64 { return st.ClientAborts }},
	} {
		family := prefix + "_" + c.name + "_total"
		e.Head(family, "counter", c.help)
		for _, name := range names {
			e.Sample(family, Label("endpoint", name), float64(c.value(stats[name])))
		}
	}
}

// Send writes the body with the exposition content type.
func (e *Exposition) Send(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.b)))
	_, _ = w.Write(e.b)
}
