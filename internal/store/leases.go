package store

import (
	"fmt"
	"sync"
	"time"
)

// DefaultLeaseTTL is how long an untouched snapshot lease survives. A
// remote peer that pins a snapshot and vanishes (crash, partition) must
// not pin erosion's physical deletes forever; any lease operation renews
// the clock.
const DefaultLeaseTTL = 2 * time.Minute

// Leases is a TTL-bounded table of pinned snapshots, keyed by opaque ID —
// how the HTTP layer hands a remote peer a snapshot it can issue several
// reads against (a replication pull's enumeration and fetches). Expiry is
// lazy: every operation sweeps, so an abandoned lease releases its pin the
// next time anything touches the table (or at ReleaseAll on shutdown).
type Leases struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time // injectable clock for tests
	leases  map[string]*lease
	nextID  int64
	granted int64
	expired int64
}

type lease struct {
	snap Snapshot
	last time.Time
}

// NewLeases returns a lease table whose untouched entries expire after
// DefaultLeaseTTL.
func NewLeases() *Leases {
	return &Leases{ttl: DefaultLeaseTTL, now: time.Now, leases: map[string]*lease{}}
}

// sweepLocked releases every lease idle past the TTL. Caller holds mu.
func (l *Leases) sweepLocked() {
	cutoff := l.now().Add(-l.ttl)
	for id, le := range l.leases {
		if le.last.Before(cutoff) {
			_ = le.snap.Release()
			delete(l.leases, id)
			l.expired++
		}
	}
}

// Grant registers the pinned snapshot and returns its lease ID. The table
// owns the snapshot's release from here: via Release, TTL expiry, or
// ReleaseAll.
func (l *Leases) Grant(snap Snapshot) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked()
	l.nextID++
	l.granted++
	id := fmt.Sprintf("lease-%d", l.nextID)
	l.leases[id] = &lease{snap: snap, last: l.now()}
	return id
}

// Get returns the leased snapshot and renews its TTL. ok is false for an
// unknown (or already expired) ID.
func (l *Leases) Get(id string) (Snapshot, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked()
	le, ok := l.leases[id]
	if !ok {
		return nil, false
	}
	le.last = l.now()
	return le.snap, true
}

// Release ends the lease, releasing its snapshot. It reports whether the
// ID was live; releasing an unknown or expired lease is a no-op.
func (l *Leases) Release(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	le, ok := l.leases[id]
	if ok {
		_ = le.snap.Release()
		delete(l.leases, id)
	}
	l.sweepLocked()
	return ok
}

// ReleaseAll releases every live lease — shutdown's guarantee that no
// remote pin outlives the server.
func (l *Leases) ReleaseAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, le := range l.leases {
		_ = le.snap.Release()
		delete(l.leases, id)
	}
}

// LeaseStats is the table's counters, surfaced via /v1/stats.
type LeaseStats struct {
	Active  int   `json:"active"`
	Granted int64 `json:"granted"`
	Expired int64 `json:"expired"`
}

// Stats snapshots the table's counters (sweeping first, so Active counts
// only leases that would actually answer a Get).
func (l *Leases) Stats() LeaseStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked()
	return LeaseStats{Active: len(l.leases), Granted: l.granted, Expired: l.expired}
}
