package tenant

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func reg(quotas ...core.TenantQuota) *Registry { return NewRegistry(quotas, nil) }

func mustTenant(t *testing.T, r *Registry, name string) *Tenant {
	t.Helper()
	for _, tn := range r.Tenants() {
		if tn.Name() == name {
			return tn
		}
	}
	t.Fatalf("no tenant %q", name)
	return nil
}

// TestHotTenantCannotStarveCold is the starvation regression the PR
// exists for. One hot tenant holds the only execution slot AND has filled
// its entire waiting room; a cold tenant then asks for a slot. Under the
// old global FIFO gate this exact pattern rejected the cold tenant at the
// door (the shared queue was full) — and had it queued, every hot waiter
// ahead of it would have been served first. Under the weighted-fair gate
// the cold tenant queues in its own lane and is granted within its
// weighted share: with equal weights, no later than the second grant
// after a slot frees.
func TestHotTenantCannotStarveCold(t *testing.T) {
	r := reg(core.TenantQuota{Name: "hot"}, core.TenantQuota{Name: "cold"})
	hot, cold := mustTenant(t, r, "hot"), mustTenant(t, r, "cold")
	const hotWaiters = 8
	g := NewGate(1, hotWaiters)
	ctx := context.Background()

	// Hot occupies the slot...
	holderRel, _, err := g.Acquire(ctx, hot)
	if err != nil {
		t.Fatal(err)
	}
	// ...and fills its whole waiting room.
	grantOrder := make(chan string, hotWaiters+1)
	var wg sync.WaitGroup
	for i := 0; i < hotWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, _, err := g.Acquire(ctx, hot)
			if err != nil {
				t.Errorf("hot waiter: %v", err)
				return
			}
			grantOrder <- "hot"
			rel()
		}()
	}
	waitQueued(t, g, "hot", hotWaiters)
	if _, _, err := g.Acquire(ctx, hot); err == nil {
		t.Fatal("hot tenant's queue overflow was not rejected")
	}

	// The cold tenant arrives last — behind 8 queued hot requests.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rel, _, err := g.Acquire(ctx, cold)
		if err != nil {
			t.Errorf("cold acquire: %v", err)
			return
		}
		grantOrder <- "cold"
		rel()
	}()
	waitQueued(t, g, "cold", 1)

	holderRel()
	wg.Wait()
	close(grantOrder)
	order := []string{}
	for s := range grantOrder {
		order = append(order, s)
	}
	pos := -1
	for i, s := range order {
		if s == "cold" {
			pos = i
		}
	}
	// Equal weights: the dispatcher alternates between the two backlogged
	// lanes, so cold is the first or second grant — never behind the
	// whole hot backlog (FIFO would have put it at position 8).
	if pos < 0 || pos > 1 {
		t.Fatalf("cold granted at position %d of %v, want within the first 2", pos, order)
	}
}

// TestWeightedShares drains two saturated tenants through a 1-slot gate
// and checks grants interleave by weight: a weight-3 tenant takes 3 slots
// per round to the weight-1 tenant's 1.
func TestWeightedShares(t *testing.T) {
	r := reg(core.TenantQuota{Name: "gold", Weight: 3}, core.TenantQuota{Name: "econ", Weight: 1})
	gold, econ := mustTenant(t, r, "gold"), mustTenant(t, r, "econ")
	const perTenant = 6
	g := NewGate(1, perTenant)
	ctx := context.Background()

	holderRel, _, err := g.Acquire(ctx, gold)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2*perTenant)
	var wg sync.WaitGroup
	for _, tn := range []*Tenant{gold, econ} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rel, _, err := g.Acquire(ctx, tn)
				if err != nil {
					t.Errorf("%s: %v", tn.Name(), err)
					return
				}
				order <- tn.Name()
				rel()
			}()
		}
	}
	waitQueued(t, g, "gold", perTenant)
	waitQueued(t, g, "econ", perTenant)

	holderRel()
	wg.Wait()
	close(order)
	var grants []string
	for s := range order {
		grants = append(grants, s)
	}
	// First full round: 3 gold + 1 econ in the first 4 grants.
	goldN := 0
	for _, s := range grants[:4] {
		if s == "gold" {
			goldN++
		}
	}
	if goldN != 3 {
		t.Fatalf("first round served %d gold of 4 grants (%v), want 3", goldN, grants)
	}
}

// waitQueued polls until the named tenant has n queued waiters.
func waitQueued(t *testing.T, g *Gate, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		per, _, _ := g.Snapshot()
		if per[name].Queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d queued (have %+v)", name, n, per)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPerTenantInFlightCap: a tenant with MaxInFlight 1 cannot take a
// second slot even when the gate has spare capacity, and the spare slot
// stays available to other tenants (work conservation).
func TestPerTenantInFlightCap(t *testing.T) {
	r := reg(core.TenantQuota{Name: "capped", MaxInFlight: 1}, core.TenantQuota{Name: "free"})
	capped, free := mustTenant(t, r, "capped"), mustTenant(t, r, "free")
	g := NewGate(2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rel1, _, err := g.Acquire(ctx, capped)
	if err != nil {
		t.Fatal(err)
	}
	// Second capped request must park even though a slot is free.
	done := make(chan error, 1)
	go func() {
		rel, _, err := g.Acquire(ctx, capped)
		if err == nil {
			rel()
		}
		done <- err
	}()
	waitQueued(t, g, "capped", 1)
	// Another tenant takes the spare slot immediately.
	relFree, wait, err := g.Acquire(ctx, free)
	if err != nil || wait != 0 {
		t.Fatalf("free tenant blocked: wait=%v err=%v", wait, err)
	}
	relFree()
	// Releasing the capped slot admits the parked request.
	rel1()
	if err := <-done; err != nil {
		t.Fatalf("parked capped request: %v", err)
	}
}

// TestAcquireContextCancel: a waiter whose context dies leaves the queue
// (no slot leak), and a waiter granted concurrently with its cancellation
// returns the slot.
func TestAcquireContextCancel(t *testing.T) {
	r := reg(core.TenantQuota{Name: "a"})
	a := mustTenant(t, r, "a")
	g := NewGate(1, 4)
	rel, _, err := g.Acquire(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Acquire(ctx, a)
		errc <- err
	}()
	waitQueued(t, g, "a", 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", err)
	}
	per, inFlight, queued := g.Snapshot()
	if per["a"].Queued != 0 || queued != 0 {
		t.Fatalf("canceled waiter still queued: %+v", per)
	}
	rel()
	_, inFlight, _ = g.Snapshot()
	if inFlight != 0 {
		t.Fatalf("in-flight %d after full release", inFlight)
	}
	// The gate still works.
	rel2, _, err := g.Acquire(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
}

// TestRejectionRetryAfterTracksLoad: with no hold-time signal the hint is
// the 1s floor; after slow requests complete, a rejection's hint grows
// with the measured hold time and backlog.
func TestRejectionRetryAfterTracksLoad(t *testing.T) {
	r := reg(core.TenantQuota{Name: "a"})
	a := mustTenant(t, r, "a")
	g := NewGate(1, 1)
	// Synthetic clock so hold times are exact. Mutex-guarded: parked
	// waiters read it from their own goroutines.
	var clkMu sync.Mutex
	clock := time.Unix(1000, 0)
	g.now = func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clkMu.Lock()
		clock = clock.Add(d)
		clkMu.Unlock()
	}

	ctx := context.Background()
	rel, _, err := g.Acquire(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	// Queue full: park one waiter, then reject.
	go func() {
		rel2, _, err := g.Acquire(ctx, a)
		if err == nil {
			rel2()
		}
	}()
	waitQueued(t, g, "a", 1)
	_, _, err = g.Acquire(ctx, a)
	rej := &Rejection{}
	if !errors.As(err, &rej) || rej.RetryAfter != time.Second {
		t.Fatalf("pre-signal rejection = %v, want 1s floor", err)
	}

	// Complete the holder with a 5s hold: the EWMA seeds at 5s.
	advance(5 * time.Second)
	rel()
	// Saturate again and reject: the hint must now scale with the hold.
	waitQueued(t, g, "a", 0) // parked waiter was granted
	relB, _, err := g.Acquire(ctx, a)
	if err != nil {
		// The parked waiter may still hold the slot; either way one of
		// them has it. Park ours instead.
		t.Fatalf("re-acquire: %v", err)
	}
	go func() {
		relC, _, err := g.Acquire(ctx, a)
		if err == nil {
			relC()
		}
	}()
	waitQueued(t, g, "a", 1)
	_, _, err = g.Acquire(ctx, a)
	if !errors.As(err, &rej) {
		t.Fatalf("saturated acquire = %v, want rejection", err)
	}
	// holdEWMA 5s, backlog 2 (1 in flight + 1 queued), capacity 1,
	// share 1 -> 15s estimate.
	if rej.RetryAfter < 10*time.Second || rej.RetryAfter > 30*time.Second {
		t.Fatalf("load-derived Retry-After = %s, want scaled with the 5s hold", rej.RetryAfter)
	}
	relB()
}
