// Package sub is the standing-query subsystem: a client registers a query
// once and the store evaluates it incrementally — only over newly
// committed segments, as each stream's ingest pipeline commits them —
// pushing result chunks instead of being polled.
//
// The design keeps push strictly off the ingest path:
//
//   - the Hub registers ONE commit listener with the server's segment
//     manifest; the listener runs inside the commit step (so it observes
//     commits exactly once, in commit order, atomically with visibility)
//     and does nothing but a non-blocking send into each matching
//     subscriber's bounded pending queue — ingest never waits on a
//     subscriber;
//   - each subscription owns an evaluator goroutine that drains its
//     pending queue and runs the server's own one-shot query (Server.Query
//     over [idx, idx+1), which pins a fresh snapshot), so every pushed
//     chunk is byte-identical to a post-hoc query over the same span;
//   - a slow consumer fills its own pending queue and hits its configured
//     policy: PolicyDisconnect (default) ends the subscription with
//     ErrLagged — the client re-subscribes and backfills with a historical
//     query — while PolicyDrop skips the segment and counts the gap
//     (surfaced as Push.Dropped so the consumer can detect it). Ingest
//     backpressure is never an outcome.
//
// Predicate rules ("≥ N car detections in the last W segments") ride on
// the evaluator: each pushed chunk updates a per-rule sliding window, and
// a window crossing its threshold emits an Alert on the push and, when the
// rule names a webhook, enqueues a buffered, bounded-retry delivery (see
// webhook.go).
package sub

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/store"
)

// DefaultBuffer is a subscription's pending-commit queue depth when the
// request does not specify one: deep enough to absorb an ingest burst
// while one chunk is evaluated, small enough that a stuck consumer is
// detected within a handful of segments.
const DefaultBuffer = 64

// DefaultMaxSubscriptions bounds concurrently active subscriptions when
// HubOptions is silent.
const DefaultMaxSubscriptions = 64

var (
	// ErrLagged ends a PolicyDisconnect subscription whose pending queue
	// overflowed: the consumer fell behind ingest and the contiguous
	// stream could not be preserved.
	ErrLagged = errors.New("sub: subscriber lagged behind ingest")
	// ErrClosed is returned for operations on a closed hub, and is the
	// terminal reason of subscriptions ended by a hub drain.
	ErrClosed = errors.New("sub: hub closed")
	// ErrLimit rejects a Subscribe beyond the configured maximum — the
	// admission-control signal the API layer maps to 429.
	ErrLimit = errors.New("sub: subscription limit reached")
)

// Policy selects what happens when a commit arrives and the subscriber's
// bounded pending queue is full.
type Policy int

const (
	// PolicyDisconnect ends the subscription with ErrLagged. The pushed
	// stream is therefore always gap-free: every delivered chunk is
	// contiguous in commit order, or the subscription dies telling you so.
	PolicyDisconnect Policy = iota
	// PolicyDrop skips the overflowing segment and keeps the subscription
	// alive; the cumulative drop count travels on every later Push.
	PolicyDrop
)

func (p Policy) String() string {
	if p == PolicyDrop {
		return "drop"
	}
	return "disconnect"
}

// ParsePolicy maps the wire spelling to a Policy ("" selects disconnect).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "disconnect":
		return PolicyDisconnect, nil
	case "drop":
		return PolicyDrop, nil
	}
	return PolicyDisconnect, fmt.Errorf("sub: unknown policy %q (want disconnect or drop)", s)
}

// Rule is one predicate over a subscription's pushed chunks: fire when the
// matching detections across the last WindowSegments chunks reach
// MinCount. A firing rule emits an Alert on the push; when Webhook is set
// it is also delivered there with bounded retry. The JSON tags are a
// rule's wire form in the HTTP API's subscribe request.
type Rule struct {
	Label          string `json:"label,omitempty"`           // detection label to count; "" counts all
	MinCount       int    `json:"min_count"`                 // threshold (>= 1)
	WindowSegments int    `json:"window_segments,omitempty"` // sliding window; <= 0 selects 1
	Webhook        string `json:"webhook,omitempty"`         // optional POST target
}

// Alert is one rule firing, as pushed in-band and POSTed to webhooks.
type Alert struct {
	SubID          string `json:"sub_id"`
	Rule           int    `json:"rule"` // index into the subscription's rules
	Label          string `json:"label,omitempty"`
	Count          int    `json:"count"`
	WindowSegments int    `json:"window_segments"`
	Stream         string `json:"stream"`
	Seg0           int    `json:"seg0"`
	Seg1           int    `json:"seg1"`
	Seq            int64  `json:"seq"`
}

// Request registers one standing query.
type Request struct {
	Stream   string
	Query    string  // cascade name for query.ByName; "" selects Query A
	Accuracy float64 // target operator accuracy in [0, 1]; 0 selects query.DefaultAccuracy
	Buffer   int     // pending-commit queue depth; <= 0 selects DefaultBuffer
	Policy   Policy
	Rules    []Rule
}

// Push is one incremental result: the query evaluated over exactly the
// committed segments [Seg0, Seg1) against a snapshot pinned for this
// evaluation — byte-identical (at the wire-chunk level) to a historical
// query over the same span. Result may be shared with other subscriptions
// of the same (stream, query, accuracy) — one evaluation feeds them all —
// so consumers must treat it as read-only.
type Push struct {
	Seq        int64 // manifest commit sequence (strictly increasing)
	Seg0, Seg1 int
	Result     store.Result
	Alerts     []Alert
	Dropped    int64     // cumulative PolicyDrop gaps so far (0 = gap-free)
	Enqueued   time.Time // when the commit was observed (latency = deliver time - Enqueued)
}

// event is one pending commit awaiting evaluation.
type event struct {
	c  segment.Commit
	at time.Time
}

// Subscription is one registered standing query. Read pushes from Out;
// when it closes, Err explains why (nil for a clean Unsubscribe).
type Subscription struct {
	id      string
	req     Request
	cascade query.Cascade
	opNames []string

	pending chan event
	out     chan Push
	quit    chan struct{}
	done    chan struct{}
	cancel  context.CancelFunc
	hooks   *webhooks

	closeOnce sync.Once
	errMu     sync.Mutex
	err       error

	delivered  atomic.Int64
	dropped    atomic.Int64
	evalErrors atomic.Int64
	rulesFired atomic.Int64
	lastSeq    atomic.Int64
	latencyNs  atomic.Int64

	windows [][]int // per-rule ring of the last WindowSegments chunk counts
	winPos  int
}

// ID returns the subscription's hub-unique identifier.
func (s *Subscription) ID() string { return s.id }

// Out is the push stream. It closes when the subscription ends; consume
// promptly — a full pending queue triggers the subscription's Policy.
func (s *Subscription) Out() <-chan Push { return s.out }

// Err reports why the subscription ended: nil while live and after a clean
// Unsubscribe, ErrLagged on a disconnect-policy overflow, ErrClosed after
// a hub drain, or the evaluation error that killed it.
func (s *Subscription) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// fail latches the terminal reason and stops the evaluator. Safe from any
// goroutine, including the manifest-side listener; first reason wins.
func (s *Subscription) fail(err error) {
	s.closeOnce.Do(func() {
		s.errMu.Lock()
		s.err = err
		s.errMu.Unlock()
		s.cancel()
		close(s.quit)
	})
}

// Stats is one subscription's counters, surfaced via /v1/stats.
type Stats struct {
	ID         string  `json:"id"`
	Stream     string  `json:"stream"`
	Query      string  `json:"query"`
	Policy     string  `json:"policy"`
	Rules      int     `json:"rules,omitempty"`
	Delivered  int64   `json:"delivered"`
	Dropped    int64   `json:"dropped"`
	Pending    int     `json:"pending"`
	EvalErrors int64   `json:"eval_errors"`
	RulesFired int64   `json:"rules_fired"`
	LastSeq    int64   `json:"last_seq"`
	AvgPushMs  float64 `json:"avg_push_ms"` // mean commit-to-delivery latency
}

// Stats snapshots the subscription's counters.
func (s *Subscription) Stats() Stats {
	st := Stats{
		ID:         s.id,
		Stream:     s.req.Stream,
		Query:      s.req.Query,
		Policy:     s.req.Policy.String(),
		Rules:      len(s.req.Rules),
		Delivered:  s.delivered.Load(),
		Dropped:    s.dropped.Load(),
		Pending:    len(s.pending),
		EvalErrors: s.evalErrors.Load(),
		RulesFired: s.rulesFired.Load(),
		LastSeq:    s.lastSeq.Load(),
	}
	if st.Delivered > 0 {
		st.AvgPushMs = float64(s.latencyNs.Load()) / float64(st.Delivered) / 1e6
	}
	return st
}

// HubOptions shapes a hub. The zero value selects working defaults.
type HubOptions struct {
	// MaxSubscriptions bounds concurrently active subscriptions: one more
	// and Subscribe returns ErrLimit. Zero selects
	// DefaultMaxSubscriptions; negative disables subscriptions entirely.
	MaxSubscriptions int
}

// Source is what a hub reads: the commit stream it routes, and the
// one-shot query it runs over each committed segment. *server.Server is
// the one implementation.
type Source interface {
	// SubscribeCommits registers fn to observe every segment commit from
	// this point on, exactly once, in commit order; fn must not block.
	SubscribeCommits(fn func(segment.Commit)) (cancel func())
	// Query runs the cascade over segments [seg0, seg1) of the stream
	// against a snapshot pinned for this call.
	Query(ctx context.Context, stream string, cascade query.Cascade, opNames []string, acc float64, seg0, seg1 int) (store.Result, error)
}

// Hub fans segment commits out to standing queries. Create with NewHub,
// register with Subscribe, tear down with Close (part of graceful drain:
// in-flight pushes finish, every subscription ends with ErrClosed).
type Hub struct {
	src   Source
	opt   HubOptions
	hooks *webhooks

	ctx       context.Context
	cancelCtx context.CancelFunc
	unhook    func() // manifest listener cancel

	mu     sync.Mutex
	subs   map[string]*Subscription
	nextID int
	opened int64
	closed bool

	// flights dedupes evaluations across subscriptions: N standing queries
	// with the same (stream, query, accuracy) watching one stream cost ONE
	// cascade run per commit, not N — the first evaluator to reach a commit
	// leads, the rest reuse its QueryResult (see sharedEval). flightOrder
	// bounds the table FIFO at maxFlights so a long-lived hub cannot
	// accumulate one entry per commit forever.
	flights     map[string]*flight
	flightOrder []string

	evalRuns   atomic.Int64 // cascade evaluations actually executed
	evalShared atomic.Int64 // pushes served from another subscription's run
}

// flight is one in-progress (or completed) shared evaluation. done closes
// once res/err are final; waiters hold the pointer, so evicting the table
// entry never strands them.
type flight struct {
	done chan struct{}
	res  store.Result
	err  error
}

// maxFlights bounds the shared-evaluation table. Evicting a still-running
// flight is safe — a later subscriber just evaluates independently.
const maxFlights = 256

// flightKey identifies evaluations that are provably interchangeable: same
// stream, same segment, same canonical cascade, same accuracy. The cascade
// name is canonical (query.ByName normalises "a" and "A" to one cascade),
// so differently-spelled requests still share.
func flightKey(s *Subscription, idx int) string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%g", s.req.Stream, idx, s.cascade.Name, s.req.Accuracy)
}

// NewHub wires a hub to the source's commit stream. The caller must Close
// it before closing the source.
func NewHub(src Source, opt HubOptions) *Hub {
	if opt.MaxSubscriptions == 0 {
		opt.MaxSubscriptions = DefaultMaxSubscriptions
	}
	h := &Hub{src: src, opt: opt, subs: map[string]*Subscription{}, flights: map[string]*flight{}}
	h.ctx, h.cancelCtx = context.WithCancel(context.Background())
	h.hooks = newWebhooks(webhookOptions{})
	h.unhook = src.SubscribeCommits(h.onCommit)
	return h
}

// onCommit is the manifest-side listener: it runs inside the commit step,
// so it only routes — a non-blocking send per matching subscriber, with
// the subscriber's policy applied on overflow. Lock order is manifest.mu →
// hub.mu; nothing here may call back into the source.
func (h *Hub) onCommit(c segment.Commit) {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.subs {
		if s.req.Stream != c.Stream {
			continue
		}
		select {
		case s.pending <- event{c: c, at: now}:
		default:
			s.dropped.Add(1)
			if s.req.Policy == PolicyDisconnect {
				s.fail(ErrLagged)
			}
		}
	}
}

// Subscribe registers a standing query and starts its evaluator. The
// subscription observes every segment committed to its stream from this
// call on, exactly once, in commit order.
func (h *Hub) Subscribe(req Request) (*Subscription, error) {
	cascade, names, err := query.ByName(req.Query)
	if err != nil {
		return nil, err
	}
	if req.Stream == "" {
		return nil, errors.New("sub: missing stream")
	}
	if req.Accuracy < 0 || req.Accuracy > 1 {
		return nil, errors.New("sub: accuracy must be within [0, 1]")
	}
	if req.Accuracy == 0 {
		req.Accuracy = query.DefaultAccuracy
	}
	if req.Buffer <= 0 {
		req.Buffer = DefaultBuffer
	}
	windows := make([][]int, len(req.Rules))
	for i, r := range req.Rules {
		if r.MinCount < 1 {
			return nil, fmt.Errorf("sub: rule %d: min_count must be >= 1", i)
		}
		if r.WindowSegments <= 0 {
			req.Rules[i].WindowSegments = 1
		}
		windows[i] = make([]int, req.Rules[i].WindowSegments)
	}

	ctx, cancel := context.WithCancel(h.ctx)
	s := &Subscription{
		req:     req,
		cascade: cascade,
		opNames: names,
		pending: make(chan event, req.Buffer),
		out:     make(chan Push),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		cancel:  cancel,
		hooks:   h.hooks,
		windows: windows,
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	if h.opt.MaxSubscriptions < 0 || len(h.subs) >= h.opt.MaxSubscriptions {
		h.mu.Unlock()
		cancel()
		return nil, ErrLimit
	}
	h.nextID++
	h.opened++
	s.id = fmt.Sprintf("s%d", h.nextID)
	h.subs[s.id] = s
	h.mu.Unlock()

	go h.evaluate(ctx, s)
	return s, nil
}

// Unsubscribe ends the named subscription cleanly: its evaluator stops
// after any in-flight push, Out closes, Err stays nil. It reports whether
// the subscription was live.
func (h *Hub) Unsubscribe(id string) bool {
	h.mu.Lock()
	s := h.subs[id]
	h.mu.Unlock()
	if s == nil {
		return false
	}
	s.fail(nil)
	<-s.done
	return true
}

// remove detaches a finished subscription from the hub's routing table.
func (h *Hub) remove(s *Subscription) {
	h.mu.Lock()
	if h.subs[s.id] == s {
		delete(h.subs, s.id)
	}
	h.mu.Unlock()
}

// evaluate is the per-subscription evaluator: one commit at a time, a
// fresh pinned snapshot per commit, results pushed in commit order. It
// owns s.out and closes it on exit.
func (h *Hub) evaluate(ctx context.Context, s *Subscription) {
	defer close(s.done)
	defer close(s.out)
	defer h.remove(s)
	for {
		// Quit wins over further pending work: a drain finishes the
		// in-flight push (the previous loop iteration completed its send)
		// but does not chew through a deep backlog.
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case ev := <-s.pending:
			if !h.evalOne(ctx, s, ev) {
				return
			}
		}
	}
}

// evalOne evaluates one committed segment (or adopts a matching
// subscription's shared evaluation of it) and pushes the chunk. It reports
// false when the subscription should end.
func (h *Hub) evalOne(ctx context.Context, s *Subscription, ev event) bool {
	res, err, quit := h.sharedEval(ctx, s, ev)
	if quit {
		return false // subscription ended while waiting on a shared flight
	}
	if err != nil {
		if ctx.Err() != nil {
			s.fail(ErrClosed)
			return false
		}
		s.evalErrors.Add(1)
		s.fail(fmt.Errorf("sub: evaluating segment %d: %w", ev.c.Idx, err))
		return false
	}
	p := Push{
		Seq:      ev.c.Seq,
		Seg0:     ev.c.Idx,
		Seg1:     ev.c.Idx + 1,
		Result:   res,
		Alerts:   s.applyRules(ev.c, res),
		Dropped:  s.dropped.Load(),
		Enqueued: ev.at,
	}
	select {
	case s.out <- p:
	case <-s.quit:
		return false
	}
	s.delivered.Add(1)
	s.lastSeq.Store(ev.c.Seq)
	s.latencyNs.Add(time.Since(ev.at).Nanoseconds())
	return true
}

// sharedEval serves one commit's evaluation through the hub's in-flight
// table. The first subscription to reach a flight key evaluates and
// publishes; concurrent and later arrivals at the same key reuse the
// published QueryResult — one cascade run feeds every matching
// subscription, so fan-out cost no longer scales with subscriber count.
// The shared result is read-only by the Push contract.
//
// The leader evaluates under the HUB's context, not its own: its result
// must survive the leader unsubscribing mid-run, or a departing subscriber
// would poison every waiter. A failed flight is unpublished (removed from
// the table) and waiters fall back to an independent evaluation, so one
// subscription's transient error cannot cascade. quit reports that THIS
// subscription ended while waiting; res/err are meaningless then.
func (h *Hub) sharedEval(ctx context.Context, s *Subscription, ev event) (res store.Result, err error, quit bool) {
	key := flightKey(s, ev.c.Idx)
	h.mu.Lock()
	if f, ok := h.flights[key]; ok {
		h.mu.Unlock()
		select {
		case <-f.done:
		case <-s.quit:
			return store.Result{}, nil, true
		}
		if f.err == nil {
			h.evalShared.Add(1)
			return f.res, nil, false
		}
		// The leader failed; evaluate independently under this
		// subscription's own context and snapshot.
		res, err = h.directEval(ctx, s, ev)
		return res, err, false
	}
	f := &flight{done: make(chan struct{})}
	h.flights[key] = f
	h.flightOrder = append(h.flightOrder, key)
	if len(h.flightOrder) > maxFlights {
		old := h.flightOrder[0]
		h.flightOrder = h.flightOrder[1:]
		delete(h.flights, old)
	}
	h.mu.Unlock()
	f.res, f.err = h.directEval(h.ctx, s, ev)
	if f.err != nil {
		// Unpublish so a retry (or a waiter's fallback) starts clean; the
		// stale flightOrder entry at worst evicts a re-created flight early.
		h.mu.Lock()
		if h.flights[key] == f {
			delete(h.flights, key)
		}
		h.mu.Unlock()
	}
	close(f.done)
	return f.res, f.err, false
}

// directEval runs one commit's query through the source's one-shot query
// path, the one a post-hoc query takes, so the chunk is byte-identical to
// a post-hoc query over the same span.
func (h *Hub) directEval(ctx context.Context, s *Subscription, ev event) (store.Result, error) {
	h.evalRuns.Add(1)
	return h.src.Query(ctx, s.req.Stream, s.cascade, s.opNames, s.req.Accuracy, ev.c.Idx, ev.c.Idx+1)
}

// applyRules advances every rule's sliding window with this chunk's
// detection counts and returns the alerts that fired. Runs only on the
// evaluator goroutine.
func (s *Subscription) applyRules(c segment.Commit, res store.Result) []Alert {
	if len(s.req.Rules) == 0 {
		return nil
	}
	var alerts []Alert
	for i, rule := range s.req.Rules {
		count := 0
		for _, r := range res.Results {
			for _, d := range r.Detections {
				if rule.Label == "" || d.Label == rule.Label {
					count++
				}
			}
		}
		win := s.windows[i]
		win[s.winPos%len(win)] = count
		total := 0
		for _, v := range win {
			total += v
		}
		if total >= rule.MinCount {
			a := Alert{
				SubID: s.id, Rule: i, Label: rule.Label,
				Count: total, WindowSegments: rule.WindowSegments,
				Stream: c.Stream, Seg0: c.Idx, Seg1: c.Idx + 1, Seq: c.Seq,
			}
			alerts = append(alerts, a)
			s.rulesFired.Add(1)
		}
	}
	s.winPos++
	for i, a := range alerts {
		if url := s.req.Rules[a.Rule].Webhook; url != "" {
			s.hooks.enqueue(url, alerts[i])
		}
	}
	return alerts
}

// HubStats aggregates the hub's activity. EvalRuns counts cascade
// evaluations actually executed; EvalShared counts pushes served from
// another subscription's run — their sum is total pushes evaluated, and a
// high shared fraction means the dedup table is absorbing subscriber
// fan-out.
type HubStats struct {
	Active          int     `json:"active"`
	Opened          int64   `json:"opened"`
	EvalRuns        int64   `json:"eval_runs"`
	EvalShared      int64   `json:"eval_shared"`
	WebhooksSent    int64   `json:"webhooks_sent"`
	WebhookRetries  int64   `json:"webhook_retries"`
	WebhookFailures int64   `json:"webhook_failures"`
	Subs            []Stats `json:"subs,omitempty"`
}

// Stats snapshots the hub and every live subscription (sorted by ID).
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	st := HubStats{
		Active:     len(h.subs),
		Opened:     h.opened,
		EvalRuns:   h.evalRuns.Load(),
		EvalShared: h.evalShared.Load(),
	}
	for _, s := range h.subs {
		st.Subs = append(st.Subs, s.Stats())
	}
	h.mu.Unlock()
	sort.Slice(st.Subs, func(i, j int) bool { return st.Subs[i].ID < st.Subs[j].ID })
	ws := h.hooks.stats()
	st.WebhooksSent, st.WebhookRetries, st.WebhookFailures = ws.Sent, ws.Retries, ws.Failures
	return st
}

// Close drains the hub: the commit listener detaches (ingest proceeds
// untouched), every subscription finishes its in-flight push and ends
// with ErrClosed, and the webhook dispatcher stops after its current
// delivery attempt. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	// Outside h.mu: the listener cancel takes the manifest lock, and the
	// established order is manifest.mu → hub.mu.
	h.unhook()
	for _, s := range subs {
		s.fail(ErrClosed)
	}
	for _, s := range subs {
		<-s.done
	}
	h.hooks.close()
	h.cancelCtx()
}
