package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// recorder is a removal hook that records what it was told, so the checker
// can hold the cache to its contract: every value that entered and is no
// longer resident left through the hook, exactly once.
type recorder struct {
	removed map[string][]int // key -> values the hook was handed, in order
}

func newRecorded(budget int64) (*Cache[int], *recorder) {
	r := &recorder{removed: map[string][]int{}}
	// The hook runs under the cache's lock, which is all that orders these
	// appends when several goroutines drive the cache.
	return New(budget, func(key string, v int) { r.removed[key] = append(r.removed[key], v) }), r
}

// checkInvariants asserts the structural invariants every operation sequence
// must preserve: the byte budget holds, the byte account matches the
// resident entries, the list and map agree, and the generation states are
// exactly those with residents or fills in flight. entered, when non-nil, is
// the model's record of every value a Landed put wrote per key, in order:
// all but a resident key's last must have been handed to the hook.
func checkInvariants(t *testing.T, c *Cache[int], r *recorder, entered map[string][]int, step string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bytes > c.budget {
		t.Fatalf("%s: Bytes %d > Budget %d", step, c.bytes, c.budget)
	}
	if c.ll.Len() != len(c.entries) {
		t.Fatalf("%s: list has %d entries, map %d", step, c.ll.Len(), len(c.entries))
	}
	var sum int64
	residents := map[string]int{}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry[int])
		if got, ok := c.entries[ent.key]; !ok || got != el {
			t.Fatalf("%s: list entry %q not in map", step, ent.key)
		}
		sum += ent.size
		residents[ent.group]++
	}
	if sum != c.bytes {
		t.Fatalf("%s: accounted %d bytes, entries hold %d", step, c.bytes, sum)
	}
	// Resident counts must match the entries actually cached, counts never
	// go negative, and a state nothing references must have been pruned (the
	// leak a per-dead-stream generation map would otherwise grow).
	for group, st := range c.groups {
		if st.inflight < 0 {
			t.Fatalf("%s: group %q inflight %d < 0", step, group, st.inflight)
		}
		if st.residents != residents[group] {
			t.Fatalf("%s: group %q state claims %d residents, cache holds %d", step, group, st.residents, residents[group])
		}
		if st.inflight == 0 && st.residents == 0 {
			t.Fatalf("%s: group %q state with no residents and no fills not pruned", step, group)
		}
	}
	for group, n := range residents {
		if c.groups[group] == nil {
			t.Fatalf("%s: group %q has %d residents but no generation state", step, group, n)
		}
	}
	for key, vs := range entered {
		want := vs
		if el, ok := c.entries[key]; ok {
			if got := el.Value.(*entry[int]).v; got != vs[len(vs)-1] {
				t.Fatalf("%s: key %q holds %d, last landed %d", step, key, got, vs[len(vs)-1])
			}
			want = vs[:len(vs)-1]
		}
		if fmt.Sprint(r.removed[key]) != fmt.Sprint(want) {
			t.Fatalf("%s: key %q: hook was told %v, values that left are %v", step, key, r.removed[key], want)
		}
	}
}

// TestGenerationStatePruned drives full miss→put / miss→abandon cycles
// across many group names and asserts the generation map ends empty: a
// deployment churning through stream names must not leak one state per dead
// stream.
func TestGenerationStatePruned(t *testing.T) {
	c, r := newRecorded(8)
	landed := 0
	for i := 0; i < 200; i++ {
		group := fmt.Sprintf("stream-%d", i)
		k := group + "/0"
		switch i % 3 {
		case 0: // miss → put → Invalidate
			if _, tok, ok := c.Get(group, k); !ok {
				c.Put(group, k, i, 1, tok)
				landed++
			}
			c.Invalidate(group)
		case 1: // miss → abandon (retrieval failed)
			if _, _, ok := c.Get(group, k); !ok {
				c.Abandon(group)
			}
		case 2: // a fill with no lookup, then a keyed invalidation
			c.Put(group, k, i, 1, c.Miss(group))
			landed++
			c.Bump(group)
			c.Remove(k)
		}
		checkInvariants(t, c, r, nil, fmt.Sprintf("cycle %d", i))
	}
	if n := len(c.groups); n != 0 {
		t.Fatalf("generation map holds %d states after full churn, want 0", n)
	}
	if len(r.removed) != landed {
		t.Fatalf("hook saw %d keys leave, want the %d that landed", len(r.removed), landed)
	}
}

// TestPropertyBudgetAndInvalidation drives the cache with random put /
// refresh / invalidate / remove / resize / in-flight-fill sequences and
// asserts after every operation that Bytes <= Budget (the invariant an
// oversized refresh once broke), the byte accounting is exact, every value
// that left was handed to the removal hook, and that a group's invalidation
// never drops another group's in-flight fill (the invariant a global
// generation once broke). Every miss the test observes is balanced, so the
// generation map must end empty once the cache is drained.
func TestPropertyBudgetAndInvalidation(t *testing.T) {
	groups := []string{"a", "b", "c"}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, r := newRecorded(int64(4 + rng.Intn(8)))
			entered := map[string][]int{}
			put := func(group, key string, v int, size int64, tok Token) Outcome {
				out := c.Put(group, key, v, size, tok)
				if out == Landed {
					entered[key] = append(entered[key], v)
				}
				return out
			}

			// In-flight fills: miss observed (token captured), put not yet
			// issued — the state an Invalidate races against.
			type fill struct {
				group, key  string
				tok         Token
				invalidated bool // the group's generation advanced after the miss
			}
			var fills []fill
			outdate := func(group string) {
				for i := range fills {
					if fills[i].group == group {
						fills[i].invalidated = true
					}
				}
			}

			const ops = 400
			for op := 0; op < ops; op++ {
				group := groups[rng.Intn(len(groups))]
				k := fmt.Sprintf("%s/%d", group, rng.Intn(6))
				switch rng.Intn(11) {
				case 0, 1, 2, 3: // direct put/refresh, occasionally oversized
					size := int64(1 + rng.Intn(4))
					if rng.Intn(8) == 0 {
						size = 64 // deliberately larger than any budget above
					}
					put(group, k, op, size, c.Miss(group))
				case 4, 5: // begin an in-flight fill (observe the miss)
					if _, tok, ok := c.Get(group, k); !ok {
						fills = append(fills, fill{group: group, key: k, tok: tok})
					}
				case 6: // complete a random in-flight fill
					if len(fills) == 0 {
						continue
					}
					i := rng.Intn(len(fills))
					f := fills[i]
					fills = append(fills[:i], fills[i+1:]...)
					_, before := c.Peek(f.key)
					out := put(f.group, f.key, op, 1, f.tok)
					_, resident := c.Peek(f.key)
					if f.invalidated && (out != Stale || (!before && resident)) {
						t.Fatalf("op %d: fill for %s observed before its group was invalidated landed (%v)", op, f.key, out)
					}
					// A non-invalidated fill must land: a 1-unit fill fits
					// every budget this test sets.
					if !f.invalidated && (out != Landed || !resident) {
						t.Fatalf("op %d: fill for %s dropped (%v) without an invalidation of %s — "+
							"cross-group invalidation starved it", op, f.key, out, f.group)
					}
				case 7: // erosion: invalidate one group
					c.Invalidate(group)
					outdate(group)
				case 8: // operator resize
					c.Resize(int64(1 + rng.Intn(10)))
				case 9: // plain lookup traffic; a miss is abandoned
					if _, _, ok := c.Get(group, k); !ok {
						c.Abandon(group)
					}
				case 10: // keyed invalidation, as the results store issues it
					c.Bump(group)
					c.Remove(k)
					outdate(group)
				}
				checkInvariants(t, c, r, entered, fmt.Sprintf("op %d", op))
			}
			for _, f := range fills {
				c.Abandon(f.group)
			}
			c.Resize(0)
			checkInvariants(t, c, r, entered, "drained")
			if n := len(c.groups); n != 0 {
				t.Fatalf("%d generation states left after every miss was balanced and the cache drained", n)
			}
		})
	}
}

// TestOversizedAndStaleNeverEnter pins the two Put outcomes that must not
// reach the owner: a value the budget cannot hold and a fill from before an
// invalidation are never resident, so the hook never hears of them — except
// for the resident entry an oversized refresh evicts.
func TestOversizedAndStaleNeverEnter(t *testing.T) {
	c, r := newRecorded(4)
	if out := c.Put("g", "k", 1, 5, c.Miss("g")); out != Oversized {
		t.Fatalf("oversized insert: %v", out)
	}
	tok := c.Miss("g")
	c.Invalidate("g")
	if out := c.Put("g", "k", 2, 1, tok); out != Stale {
		t.Fatalf("stale put: %v", out)
	}
	if len(r.removed) != 0 || len(c.groups) != 0 {
		t.Fatalf("hook told %v, %d states left; want neither", r.removed, len(c.groups))
	}
	c.Put("g", "k", 3, 1, c.Miss("g"))
	if out := c.Put("g", "k", 4, 5, c.Miss("g")); out != Oversized {
		t.Fatalf("oversized refresh: %v", out)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("after oversized refresh: %+v", st)
	}
	if fmt.Sprint(r.removed["k"]) != "[3]" {
		t.Fatalf("hook told %v, want the evicted resident value 3", r.removed["k"])
	}
}

// TestConcurrentFillsAndInvalidation runs the fill protocol from several
// goroutines at once against invalidation and resizing (for the race
// detector), then checks the structure and that balanced misses left no
// generation state behind.
func TestConcurrentFillsAndInvalidation(t *testing.T) {
	c, r := newRecorded(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				group := fmt.Sprintf("s%d", rng.Intn(3))
				k := fmt.Sprintf("%s/%d", group, rng.Intn(8))
				switch rng.Intn(8) {
				case 0:
					c.Invalidate(group)
				case 1:
					c.Resize(int64(4 + rng.Intn(16)))
				case 2:
					c.Bump(group)
					c.Remove(k)
				default:
					if _, tok, ok := c.Get(group, k); !ok {
						if rng.Intn(5) == 0 {
							c.Abandon(group)
						} else {
							c.Put(group, k, i, int64(1+rng.Intn(3)), tok)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	checkInvariants(t, c, r, nil, "after concurrent traffic")
	c.Resize(0)
	if n := c.Stats().Groups; n != 0 {
		t.Fatalf("%d generation states left after every miss was balanced and the cache drained", n)
	}
}
