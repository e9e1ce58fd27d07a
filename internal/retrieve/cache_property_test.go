package retrieve

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lru"
)

// generation registers a fill with no lookup and returns its token: what a
// direct put in these tests carries, observed before the retrieval it
// stands for began. Like a get miss it must be balanced by one put or
// abandon.
func (c *Cache) generation(stream string) lru.Token { return c.lru.Miss(stream) }

// TestCachePropertyBudgetAndInvalidation drives the adapter with random
// put / refresh / invalidate / resize / in-flight-fill sequences over real
// frame sets and asserts, from Stats alone, that the budget holds in frame
// bytes after every operation and that the occupancy is exactly the frame
// bytes of the sets the model says are resident — the adapter's own job, the
// byte sum — and that a stream's invalidation never drops another stream's
// in-flight fill. The structural invariants behind these (list, map,
// generation state, removal hook) are checked in package lru.
func TestCachePropertyBudgetAndInvalidation(t *testing.T) {
	streams := []string{"a", "b", "c"}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			unit := framesBytes(testFrames(1, 16, 16))
			c := NewCache(int64(4+rng.Intn(8)) * unit)

			// In-flight fills: miss observed (token captured), put not yet
			// issued — the state an Invalidate races against.
			type fill struct {
				stream, key string
				tok         lru.Token
				invalidated bool // Invalidate(stream) ran after the miss
			}
			var fills []fill
			held := map[string]int64{} // key -> frame bytes last put, if it may be resident

			key := func(stream string, idx int) string { return fmt.Sprintf("%s/%d", stream, idx) }
			const ops = 400
			for op := 0; op < ops; op++ {
				stream := streams[rng.Intn(len(streams))]
				k := key(stream, rng.Intn(6))
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // direct put/refresh, occasionally oversized
					n := 1 + rng.Intn(4)
					if rng.Intn(8) == 0 {
						n = 64 // deliberately larger than any budget above
					}
					c.put(stream, k, testFrames(n, 16, 16), c.generation(stream))
					held[k] = int64(n) * unit
				case 4, 5: // begin an in-flight fill (observe the miss)
					if _, tok, ok := c.get(stream, k); !ok {
						fills = append(fills, fill{stream: stream, key: k, tok: tok})
					}
				case 6: // complete a random in-flight fill
					if len(fills) == 0 {
						continue
					}
					i := rng.Intn(len(fills))
					f := fills[i]
					fills = append(fills[:i], fills[i+1:]...)
					before := resident(c, f.stream, f.key)
					c.put(f.stream, f.key, testFrames(1, 16, 16), f.tok)
					after := resident(c, f.stream, f.key)
					if f.invalidated && !before && after {
						t.Fatalf("op %d: fill for %s observed before Invalidate(%s) landed", op, f.key, f.stream)
					}
					// A non-invalidated fill must land: a 1-unit fill fits
					// every budget this test sets, and sits at the front.
					if !f.invalidated && !after {
						t.Fatalf("op %d: fill for %s dropped without an Invalidate(%s) — "+
							"cross-stream invalidation starved it", op, f.key, f.stream)
					}
					if !f.invalidated {
						held[f.key] = unit
					}
				case 7: // erosion: invalidate one stream
					c.Invalidate(stream)
					for i := range fills {
						if fills[i].stream == stream {
							fills[i].invalidated = true
						}
					}
				case 8: // operator resize
					c.Resize(int64(1+rng.Intn(10)) * unit)
				case 9: // plain lookup traffic; a miss is abandoned
					resident(c, stream, k)
				}
				// Occupancy is exactly the frame bytes of what is resident.
				var want int64
				entries := 0
				for k, b := range held {
					if resident(c, k[:1], k) {
						want += b
						entries++
					}
				}
				if st := c.Stats(); st.Bytes > st.Budget || st.Bytes != want || st.Entries != entries {
					t.Fatalf("op %d: stats %+v, model holds %d entries of %d bytes", op, st, entries, want)
				}
			}
		})
	}
}

// resident probes for key with a balanced lookup: a miss is abandoned at
// once, so the probe leaves no fill in flight.
func resident(c *Cache, stream, key string) bool {
	_, _, ok := c.get(stream, key)
	if !ok {
		c.abandon(stream)
	}
	return ok
}
