package core

// Runtime holds execution knobs that travel with a configuration but do
// not affect format derivation: how much memory the retrieval cache and
// the materialized results may hold, how the disk tiers are laid out and
// when segments leave the fast one, and each tenant's admission envelope.
// They persist with the configuration (and therefore with each epoch) so a
// reopened store serves queries exactly as configured. Its JSON tags and
// TenantQuota's are saved keys: renaming one drops that knob on reopen.
type Runtime struct {
	// CacheBytes is the retrieval cache budget in bytes: retrieved
	// segments are kept in their consumption format and evicted least
	// recently used once the budget is exceeded. Zero means "unspecified":
	// no cache on open, and an operator-enabled cache survives a
	// reconfiguration. Negative explicitly disables on Reconfigure.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// ResultsBytes is the materialized-results budget in bytes of in-memory
	// footprint: finalized per-segment operator outputs are held least
	// recently used up to it, and persisted in the kvstore, so repeated
	// analytics serve stored detections instead of re-decoding. Zero
	// means "unspecified": no materialization on open, and an
	// operator-enabled store survives a reconfiguration. Negative
	// explicitly disables on Reconfigure (and purges stored entries, so a
	// later re-enable cannot adopt results that missed invalidations).
	ResultsBytes int64 `json:"results_bytes,omitempty"`
	// FastTierBytes is the fast disk tier's byte budget: once a demotion
	// pass settles, the fast tier holds at most this many live bytes,
	// with the overflow migrated to the cold tier oldest-first. Only
	// segment replicas demote, so the budget has a small floor: server
	// metadata (epoch configurations, stream positions) always stays
	// fast. Zero means "unspecified" (an operator-set budget survives a
	// reconfiguration); negative explicitly removes the budget.
	FastTierBytes int64 `json:"fast_tier_bytes,omitempty"`
	// Shards is the per-tier kvstore shard count used when a fresh store
	// is created. An existing store's shard count is discovered from its
	// on-disk layout — sharding is a creation-time property — so this
	// knob only shapes new stores. Zero selects the engine default.
	Shards int `json:"shards,omitempty"`
	// DemoteAfterDays ages segments off the fast tier: a demotion pass
	// migrates segments at least this many days old to the cold tier
	// before erosion runs. Zero means "unspecified" (no age-based
	// demotion unless the operator sets one); negative explicitly
	// disables.
	DemoteAfterDays int `json:"demote_after_days,omitempty"`
	// Tenants is the serving layer's per-tenant admission envelope: one
	// quota per tenant of the HTTP API, persisted with the configuration
	// so a restarted server admits exactly as configured. The entry named
	// "default" governs keyless requests. An empty list serves everything
	// as one unlimited default tenant.
	Tenants []TenantQuota `json:"tenants,omitempty"`
}

// isZero reports whether no Runtime knob is set — the slice field makes
// Runtime non-comparable, so persistence cannot use r != (Runtime{}).
func (r Runtime) isZero() bool {
	return r.CacheBytes == 0 && r.ResultsBytes == 0 && r.FastTierBytes == 0 &&
		r.Shards == 0 && r.DemoteAfterDays == 0 && len(r.Tenants) == 0
}

// TenantQuota is one tenant's admission envelope in the HTTP serving
// layer: its fair-share weight in the weighted-fair admission gate plus
// the rate, concurrency and byte quotas enforced before a request may
// wait for an execution slot. Zero values mean "no limit" (and weight 1),
// so a bare {Name: "x"} tenant is isolated from its neighbours by the
// fair queue but otherwise unconstrained.
type TenantQuota struct {
	// Name identifies the tenant; API keys resolve to it. "default" is
	// the tenant of keyless requests.
	Name string `json:"name"`
	// Weight is the tenant's fair share: the admission gate drains
	// per-tenant queues round-robin, granting each backlogged tenant
	// Weight slots per round. Zero selects 1.
	Weight int `json:"weight,omitempty"`
	// MaxInFlight caps the tenant's concurrently executing requests,
	// independent of the gate-wide limit. Zero means no per-tenant cap.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxQueue bounds the tenant's private waiting room; one more and the
	// tenant (alone) is answered 429. Zero inherits the gate-wide
	// MaxQueue; negative means no waiting room.
	MaxQueue int `json:"max_queue,omitempty"`
	// RatePerSec is the tenant's sustained request-admission rate (token
	// bucket, refilled continuously). Zero means unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the rate bucket's depth — how many requests may arrive
	// back-to-back after idleness. Zero derives max(1, ceil(RatePerSec)).
	Burst int `json:"burst,omitempty"`
	// BytesPerSec budgets the tenant's traffic volume: response bytes
	// streamed plus segment bytes ingested, charged against a token
	// bucket after each request. Zero means unlimited.
	BytesPerSec int64 `json:"bytes_per_sec,omitempty"`
}
