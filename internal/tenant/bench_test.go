package tenant

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkTenantSkewAdmission measures what a cold tenant pays for a hot
// tenant's load: 32 hot workers hammer a 2-slot gate (each holding its
// slot ~2ms) while a single cold client issues one request at a time. The
// benchmark reports the cold tenant's p99 admission wait: cold queues in
// its own lane and is granted within its equal share, so its p99 stays
// near a single slot-hold time regardless of the hot backlog. Kept because
// benchmark/ runs the default tenant only and has no skew metric.
func BenchmarkTenantSkewAdmission(b *testing.B) {
	r := NewRegistry([]core.TenantQuota{{Name: "hot"}, {Name: "cold"}}, nil)
	var hot, cold *Tenant
	for _, tn := range r.Tenants() {
		switch tn.Name() {
		case "hot":
			hot = tn
		case "cold":
			cold = tn
		}
	}
	g := NewGate(2, 64)

	const hotWorkers = 32
	const holdTime = 2 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < hotWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				rel, _, err := g.Acquire(ctx, hot)
				if err != nil {
					continue
				}
				time.Sleep(holdTime)
				rel()
			}
		}()
	}
	// Let the hot backlog build before measuring.
	time.Sleep(20 * time.Millisecond)

	waits := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, wait, err := g.Acquire(context.Background(), cold)
		if err != nil {
			b.Fatalf("cold acquire: %v", err)
		}
		rel()
		waits = append(waits, wait)
	}
	b.StopTimer()
	cancel()
	wg.Wait()

	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	p99 := waits[(len(waits)*99)/100]
	b.ReportMetric(float64(p99.Microseconds())/1000, "cold-p99-ms")
}
