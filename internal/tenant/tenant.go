// Package tenant is the serving layer's multi-tenant machinery: API-key
// resolution, per-tenant quotas, and the weighted-fair admission gate
// that replaced internal/api's global FIFO semaphore.
//
// The defect this package exists to fix: a single global gate admits in
// strict arrival order, so one hot client saturating MaxInFlight+MaxQueue
// starves every other client — its requests fill the shared queue and
// everyone else is answered 429 regardless of how little they ask for.
// Here every tenant gets its own bounded queue, and a deficit round-robin
// dispatcher drains the backlogged queues in proportion to each tenant's
// Weight, so a cold tenant's request admits within its fair share no
// matter how hard a hot tenant pushes.
//
// The pieces:
//
//   - Registry: API key → *Tenant resolution. Keyless requests resolve to
//     the "default" tenant, so single-tenant deployments behave exactly
//     as before keys existed.
//   - Tenant: one tenant's quota state — a request-rate token bucket, a
//     byte-volume token bucket (charged after each response), and a
//     Window of its request statistics.
//   - Gate: the weighted-fair admission gate (gate.go).
//   - Window: the last-60s ring of per-second stat buckets for /v1/stats
//     beside the cumulative totals for Prometheus (window.go).
//
// Quotas are core.TenantQuota values: they persist in core.Runtime with
// the store configuration, and `vstore api -tenants` layers a key file
// (keyfile.go) on top.
package tenant

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// DefaultName is the tenant keyless requests resolve to.
const DefaultName = "default"

// ErrUnknownKey is Resolve's answer to an API key no tenant owns — the
// HTTP layer's 401.
var ErrUnknownKey = errors.New("tenant: unknown API key")

// Tenant is one tenant's admission state. Safe for concurrent use; all
// methods are cheap enough for the request path.
type Tenant struct {
	quota core.TenantQuota
	rate  *bucket // request-rate quota; nil = unlimited
	bytes *bucket // byte-volume quota; nil = unlimited
	win   *Window
}

func newTenant(q core.TenantQuota, now func() time.Time) *Tenant {
	t := &Tenant{quota: q, win: newWindowClock(now)}
	if q.RatePerSec > 0 {
		burst := float64(q.Burst)
		if burst <= 0 {
			burst = math.Max(1, math.Ceil(q.RatePerSec))
		}
		t.rate = newBucket(q.RatePerSec, burst, now)
	}
	if q.BytesPerSec > 0 {
		t.bytes = newBucket(float64(q.BytesPerSec), float64(q.BytesPerSec), now)
	}
	return t
}

// Name returns the tenant's identity.
func (t *Tenant) Name() string { return t.quota.Name }

// Quota returns the tenant's configured envelope.
func (t *Tenant) Quota() core.TenantQuota { return t.quota }

// Weight returns the tenant's normalized fair-share weight (>= 1).
func (t *Tenant) Weight() int {
	if t.quota.Weight < 1 {
		return 1
	}
	return t.quota.Weight
}

// AllowRequest charges the tenant's rate quota and checks its byte quota
// for one request, before the request may wait for an execution slot.
// ok=false means the quota path's 429; retryAfter is when the exhausted
// bucket next has credit.
func (t *Tenant) AllowRequest() (ok bool, retryAfter time.Duration) {
	if t.rate != nil {
		if ok, wait := t.rate.take(1); !ok {
			return false, wait
		}
	}
	if t.bytes != nil {
		if ok, wait := t.bytes.credit(); !ok {
			return false, wait
		}
	}
	return true, 0
}

// ChargeBytes debits n bytes of traffic (response stream + ingested
// segment bytes) against the byte quota. Charged after the fact — a
// response's size is unknown at admission — so the bucket may go
// negative and block later requests until it refills.
func (t *Tenant) ChargeBytes(n int64) {
	if t.bytes != nil && n > 0 {
		t.bytes.charge(float64(n))
	}
}

// Outcome classifies one finished request for the tenant's accounting.
type Outcome int

const (
	// OutcomeOK is a request that was admitted and answered.
	OutcomeOK Outcome = iota
	// OutcomeRejected is an admission rejection (429): queue overflow or
	// an exhausted rate/byte quota.
	OutcomeRejected
	// OutcomeAborted is a request whose client vanished before a slot was
	// granted — excluded from latency and admission-wait accounting.
	OutcomeAborted
	// OutcomeError is a request that was admitted but failed server-side.
	OutcomeError
)

// Observe records one finished request in the tenant's cumulative totals
// and its sliding 60-second window. wait is the admission-gate wait
// (counted only for admitted requests); bytes is the traffic charged.
func (t *Tenant) Observe(o Outcome, latency, wait time.Duration, bytes int64) {
	t.win.Observe(o, latency, wait, bytes)
}

// WindowStats summarises the tenant's last 60 seconds.
func (t *Tenant) WindowStats() WindowStats { return t.win.Snapshot() }

// Totals returns the tenant's cumulative counters (Prometheus counters —
// they never reset).
func (t *Tenant) Totals() Totals { return t.win.Totals() }

// WaitHist returns the cumulative admission-wait histogram: one count per
// WaitBucketBoundsMs entry plus a final overflow bucket.
func (t *Tenant) WaitHist() []int64 { return t.win.WaitHist() }

// Registry resolves API keys to tenants. Immutable after construction —
// quota changes arrive as a new registry on server restart, matching how
// every other Runtime knob applies.
type Registry struct {
	byKey  map[string]*Tenant
	byName map[string]*Tenant
	def    *Tenant
}

// NewRegistry builds a registry from persisted quotas and a key→tenant
// name map. Tenants named only by a key get the zero quota (weight 1,
// no limits); a "default" quota entry, when present, governs keyless
// requests. Both arguments may be nil: the result serves everything as
// one unlimited default tenant.
func NewRegistry(quotas []core.TenantQuota, keys map[string]string) *Registry {
	return newRegistryClock(quotas, keys, time.Now)
}

func newRegistryClock(quotas []core.TenantQuota, keys map[string]string, now func() time.Time) *Registry {
	r := &Registry{byKey: map[string]*Tenant{}, byName: map[string]*Tenant{}}
	for _, q := range quotas {
		if q.Name == "" {
			q.Name = DefaultName
		}
		r.byName[q.Name] = newTenant(q, now)
	}
	for key, name := range keys {
		if name == "" {
			name = DefaultName
		}
		if r.byName[name] == nil {
			r.byName[name] = newTenant(core.TenantQuota{Name: name}, now)
		}
		r.byKey[key] = r.byName[name]
	}
	if r.byName[DefaultName] == nil {
		r.byName[DefaultName] = newTenant(core.TenantQuota{Name: DefaultName}, now)
	}
	r.def = r.byName[DefaultName]
	return r
}

// Resolve maps an API key to its tenant. The empty key is the keyless
// request and resolves to the default tenant; an unknown key is
// ErrUnknownKey.
func (r *Registry) Resolve(key string) (*Tenant, error) {
	if key == "" {
		return r.def, nil
	}
	if t, ok := r.byKey[key]; ok {
		return t, nil
	}
	return nil, ErrUnknownKey
}

// Default returns the keyless tenant.
func (r *Registry) Default() *Tenant { return r.def }

// Tenants returns every tenant, sorted by name for stable iteration
// (stats responses, Prometheus exposition).
func (r *Registry) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(r.byName))
	for _, t := range r.byName {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// bucket is a continuous-refill token bucket. take is the pre-paid form
// (rate quotas: a request either has a token or is rejected with the time
// until one accrues); charge/credit is the post-paid form (byte quotas:
// the cost is known only after the response, so the balance may go
// negative and gates later requests instead).
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // balance ceiling
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newBucket(rate, burst float64, now func() time.Time) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

func (b *bucket) refillLocked() {
	t := b.now()
	if dt := t.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = t
}

// take consumes n tokens, or reports how long until they accrue.
func (b *bucket) take(n float64) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	return false, b.waitForLocked(n)
}

// credit reports whether the balance is positive (post-paid admission),
// or how long until it is.
func (b *bucket) credit() (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens > 0 {
		return true, 0
	}
	return false, b.waitForLocked(1)
}

// charge debits n tokens unconditionally; the balance may go negative.
func (b *bucket) charge(n float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.tokens -= n
}

func (b *bucket) waitForLocked(n float64) time.Duration {
	need := n - b.tokens
	d := time.Duration(need / b.rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
