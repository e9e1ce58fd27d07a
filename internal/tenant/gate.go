// The weighted-fair admission gate. Replaces internal/api's global FIFO
// semaphore, whose single shared queue let one hot tenant starve every
// other: once the hot tenant's requests filled MaxInFlight+MaxQueue,
// everyone else was rejected at the door.
//
// Structure: one bounded FIFO queue per tenant, a gate-wide in-flight
// capacity, and a deficit round-robin dispatcher. When a slot frees, the
// dispatcher walks the tenant ring granting each backlogged tenant up to
// Weight slots per round, so service is proportional to weight no matter
// how unbalanced the offered load. A tenant overflowing its own queue is
// rejected alone — with a Retry-After derived from the gate's measured
// slot-hold time and current backlog, so a throttled client backs off by
// roughly how long the backlog actually needs.

package tenant

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Rejection is the admission gate's (and quota path's) 429: the tenant
// must back off for roughly RetryAfter.
type Rejection struct {
	RetryAfter time.Duration
	Reason     string
}

func (r *Rejection) Error() string {
	return fmt.Sprintf("tenant: admission rejected (%s), retry after %s", r.Reason, r.RetryAfter)
}

// waiter is one parked Acquire: the dispatcher delivers the release func
// over ch (buffered, sent under the gate lock) when the waiter's turn
// comes.
type waiter struct {
	ch chan func()
}

// tq is one tenant's queue state inside the gate.
type tq struct {
	t        *Tenant
	queue    []*waiter
	inFlight int
	credit   int // deficit round-robin balance
}

func (q *tq) maxInFlight() int { return q.t.Quota().MaxInFlight }

// Gate is the weighted-fair admission controller. Create with NewGate;
// every request calls Acquire and, on admission, the returned release.
// All mutable fields are guarded by mu.
type Gate struct {
	mu       sync.Mutex
	capacity int
	defQueue int // per-tenant queue bound when the quota leaves MaxQueue zero
	inFlight int
	qs       map[*Tenant]*tq
	rr       []*tq // round-robin ring, tenant arrival order
	cursor   int
	holdEWMA float64 // smoothed slot-hold time, ns; drives Retry-After
	now      func() time.Time
}

// NewGate returns a gate admitting at most capacity concurrent requests,
// with defaultQueue waiting-room seats per tenant for tenants whose quota
// does not set its own MaxQueue.
func NewGate(capacity, defaultQueue int) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	if defaultQueue < 0 {
		defaultQueue = 0
	}
	return &Gate{
		capacity: capacity,
		defQueue: defaultQueue,
		qs:       map[*Tenant]*tq{},
		now:      time.Now,
	}
}

func (g *Gate) qLocked(t *Tenant) *tq {
	q, ok := g.qs[t]
	if !ok {
		q = &tq{t: t}
		g.qs[t] = q
		g.rr = append(g.rr, q)
	}
	return q
}

func (g *Gate) maxQueueOf(q *tq) int {
	switch mq := q.t.Quota().MaxQueue; {
	case mq > 0:
		return mq
	case mq < 0:
		return 0
	default:
		return g.defQueue
	}
}

// Acquire admits the caller for tenant t, parking it in t's bounded queue
// when the gate is busy. On admission it returns the release func and the
// time spent waiting. A full tenant queue returns a *Rejection (the 429
// path, with a load-derived Retry-After); a context that ends first
// returns ctx.Err().
func (g *Gate) Acquire(ctx context.Context, t *Tenant) (release func(), wait time.Duration, err error) {
	g.mu.Lock()
	q := g.qLocked(t)
	if g.inFlight < g.capacity && len(q.queue) == 0 &&
		(q.maxInFlight() == 0 || q.inFlight < q.maxInFlight()) {
		rel := g.grantLocked(q)
		g.mu.Unlock()
		return rel, 0, nil
	}
	if len(q.queue) >= g.maxQueueOf(q) {
		rej := &Rejection{RetryAfter: g.retryAfterLocked(q), Reason: "tenant queue full"}
		g.mu.Unlock()
		return nil, 0, rej
	}
	w := &waiter{ch: make(chan func(), 1)}
	q.queue = append(q.queue, w)
	g.mu.Unlock()

	t0 := g.now()
	select {
	case rel := <-w.ch:
		return rel, g.now().Sub(t0), nil
	case <-ctx.Done():
		g.mu.Lock()
		for i, qw := range q.queue {
			if qw == w {
				q.queue = append(q.queue[:i], q.queue[i+1:]...)
				g.mu.Unlock()
				return nil, g.now().Sub(t0), ctx.Err()
			}
		}
		g.mu.Unlock()
		// Already granted concurrently (the send happens under the gate
		// lock, so after the queue search fails the func is in the
		// buffer): take the slot and put it straight back.
		rel := <-w.ch
		rel()
		return nil, g.now().Sub(t0), ctx.Err()
	}
}

// grantLocked takes one slot for q and builds its release func.
func (g *Gate) grantLocked(q *tq) func() {
	g.inFlight++
	q.inFlight++
	granted := g.now()
	return func() {
		hold := g.now().Sub(granted)
		g.mu.Lock()
		g.inFlight--
		q.inFlight--
		// EWMA of slot hold time: the service-rate estimate behind
		// Retry-After hints.
		if h := float64(hold.Nanoseconds()); g.holdEWMA == 0 {
			g.holdEWMA = h
		} else {
			g.holdEWMA = 0.8*g.holdEWMA + 0.2*h
		}
		g.dispatchLocked()
		g.mu.Unlock()
	}
}

// dispatchLocked fills free slots from the tenant queues in weighted
// round-robin order.
func (g *Gate) dispatchLocked() {
	for g.inFlight < g.capacity {
		q := g.pickLocked()
		if q == nil {
			return
		}
		w := q.queue[0]
		q.queue = q.queue[1:]
		w.ch <- g.grantLocked(q)
	}
}

func (g *Gate) eligibleLocked(q *tq) bool {
	return len(q.queue) > 0 && (q.maxInFlight() == 0 || q.inFlight < q.maxInFlight())
}

// pickLocked chooses the next tenant to serve: deficit round-robin, each
// eligible tenant spending Weight credits per replenishment round. The
// cursor stays on a tenant while it has credit (so a weight-4 tenant
// takes its 4 slots together) and moves on when the credit is spent.
func (g *Gate) pickLocked() *tq {
	n := len(g.rr)
	if n == 0 {
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			j := (g.cursor + i) % n
			q := g.rr[j]
			if !g.eligibleLocked(q) || q.credit < 1 {
				continue
			}
			q.credit--
			if q.credit < 1 {
				g.cursor = (j + 1) % n
			} else {
				g.cursor = j
			}
			return q
		}
		if pass == 0 {
			any := false
			for _, q := range g.rr {
				if g.eligibleLocked(q) {
					q.credit = q.t.Weight()
					any = true
				}
			}
			if !any {
				return nil
			}
		}
	}
	return nil
}

// retryAfterLocked derives a Retry-After hint from measured load: the
// smoothed slot-hold time times the backlog ahead of this tenant, scaled
// by the inverse of its fair share, clamped to [1s, 30s]. Before any
// request completes (no hold signal) it answers 1s.
func (g *Gate) retryAfterLocked(q *tq) time.Duration {
	hold := g.holdEWMA
	if hold <= 0 {
		return time.Second
	}
	backlog := g.inFlight
	totalWeight := 0
	for _, o := range g.rr {
		backlog += len(o.queue)
		if g.eligibleLocked(o) || o.inFlight > 0 || o == q {
			totalWeight += o.t.Weight()
		}
	}
	share := float64(q.t.Weight()) / float64(max(totalWeight, 1))
	est := time.Duration(hold * float64(backlog+1) / (float64(g.capacity) * share))
	return min(max(est, time.Second), 30*time.Second)
}

// GateTenantStats is one tenant's live gate state.
type GateTenantStats struct {
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
}

// Snapshot reports every tenant's live gate state plus the gate totals.
func (g *Gate) Snapshot() (perTenant map[string]GateTenantStats, inFlight, queued int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	perTenant = make(map[string]GateTenantStats, len(g.rr))
	for _, q := range g.rr {
		perTenant[q.t.Name()] = GateTenantStats{InFlight: q.inFlight, Queued: len(q.queue)}
		queued += len(q.queue)
	}
	return perTenant, g.inFlight, queued
}

// Capacity returns the gate-wide in-flight limit.
func (g *Gate) Capacity() int { return g.capacity }
