// Package tier is the tiered, sharded storage engine underneath the
// segment store: it composes N kvstore shards across a fast tier
// (retrieval-hot formats, §4.1's fast media) and a cold tier (cheap
// archival media), so VStore's two-disk placement is expressed in the
// storage layout instead of funnelling every byte through one
// globally-locked log. Each shard is an independent kvstore with its own
// directory and lock; keys are routed to shards by a caller-supplied
// routing token (the segment layer routes by stream+segment), so
// Put/Get/Scan/Compact on different shards never contend.
//
// Reads are tier-transparent: Get consults the fast tier first and falls
// through to cold, so a segment serves byte-identical results wherever it
// lives. Demotion (fast→cold migration, driven by age and the fast-tier
// byte budget) is copy-then-delete: the cold copy is written completely
// before any fast record is removed, and Open heals a crash between the
// two phases by deleting fast records whose cold copy is already durable —
// every key ends up live in exactly one tier, with no loss and no
// duplicates.
package tier

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/sched"
)

// ID names a storage tier.
type ID int

// The two tiers: fast media for retrieval-hot formats, cold media for
// cheap archival.
const (
	Fast ID = iota
	Cold
)

// String returns the tier's directory name.
func (t ID) String() string {
	if t == Cold {
		return "cold"
	}
	return "fast"
}

// DefaultShards is the shard count for a freshly created store when the
// options do not specify one.
const DefaultShards = 4

// Options configures a tiered store.
type Options struct {
	// Shards is the number of kvstore shards per tier when creating a
	// fresh store; zero selects DefaultShards. An existing store's shard
	// count is discovered from disk and wins over this value: sharding is
	// a creation-time property of the layout.
	Shards int
	// Route maps a key to its routing token; keys with equal tokens land
	// on the same shard. Nil routes by the whole key.
	Route func(key string) string
}

// Store is a tiered, sharded key-value store. All methods are safe for
// concurrent use; cross-shard and cross-tier locking is per-shard (each
// shard is an independent kvstore), so operations on different shards
// proceed concurrently.
type Store struct {
	dir    string
	opts   Options
	shards int
	fast   []*kvstore.Store
	cold   []*kvstore.Store
}

// Open opens (creating if necessary) a tiered store under dir. A
// single-store layout (log files directly in dir) is rejected.
// Interrupted demotions — keys live in both tiers after a crash between
// a two-phase operation's write and delete — are settled by
// recoverDemotions: identical copies complete the demotion (fast
// duplicate deleted), differing copies keep the newer fast write.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: %w", err)
	}
	if err := rejectLooseLogs(dir); err != nil {
		return nil, err
	}
	shards, err := discoverShards(dir)
	if err != nil {
		return nil, err
	}
	if shards == 0 {
		shards = opts.Shards
		if shards <= 0 {
			shards = DefaultShards
		}
	}
	s := &Store{dir: dir, opts: opts, shards: shards}
	for i := 0; i < shards; i++ {
		f, err := kvstore.Open(s.shardDir(Fast, i), kvstore.Options{FaultScope: fmt.Sprintf("%s/%03d", Fast, i)})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.fast = append(s.fast, f)
		c, err := kvstore.Open(s.shardDir(Cold, i), kvstore.Options{FaultScope: fmt.Sprintf("%s/%03d", Cold, i)})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.cold = append(s.cold, c)
	}
	if err := s.recoverDemotions(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) shardDir(t ID, i int) string {
	return filepath.Join(s.dir, t.String(), fmt.Sprintf("%03d", i))
}

// rejectLooseLogs refuses a directory holding kvstore log files directly
// in it. That is a single-store layout, not a tiered one: opening it would
// create empty shards beside the logs and serve none of their data.
func rejectLooseLogs(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("tier: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".log") {
			return fmt.Errorf("tier: %s is not a tiered store: loose log file %s beside the %s/ and %s/ shard directories",
				dir, e.Name(), Fast, Cold)
		}
	}
	return nil
}

// discoverShards counts the shard directories of an existing store, and
// verifies the fast and cold tiers agree (a cold tier shorter than fast —
// a store that never demoted under an older layout — is padded by Open
// creating the missing shard directories).
func discoverShards(dir string) (int, error) {
	count := func(t ID) (int, error) {
		entries, err := os.ReadDir(filepath.Join(dir, t.String()))
		if os.IsNotExist(err) {
			return 0, nil
		}
		if err != nil {
			return 0, fmt.Errorf("tier: %w", err)
		}
		n := 0
		for _, e := range entries {
			if e.IsDir() {
				n++
			}
		}
		return n, nil
	}
	nf, err := count(Fast)
	if err != nil {
		return 0, err
	}
	nc, err := count(Cold)
	if err != nil {
		return 0, err
	}
	if nf == 0 && nc == 0 {
		return 0, nil
	}
	if nc > nf {
		return 0, fmt.Errorf("tier: cold tier has %d shards, fast has %d", nc, nf)
	}
	return nf, nil
}

// recoverDemotions settles keys left live in both tiers by an
// interrupted migration. Two operations can leave that state, told apart
// by the bytes: a demotion crash leaves identical copies (the cold copy
// wins — deleting the fast duplicate completes the migration, and the
// bytes are equal either way), while a PutTier(Fast) over a cold key
// crashed before its cold delete leaves a NEWER fast value — there the
// stale cold copy is dropped, never the fresh write.
func (s *Store) recoverDemotions() error {
	for i := range s.fast {
		for _, k := range s.fast[i].Keys("") {
			cv, cerr := s.cold[i].Get(k)
			if errors.Is(cerr, kvstore.ErrNotFound) {
				continue
			}
			if cerr != nil && !errors.Is(cerr, kvstore.ErrCorrupt) {
				return fmt.Errorf("tier: recovering demotion of %q: %w", k, cerr)
			}
			fv, ferr := s.fast[i].Get(k)
			if ferr != nil && !errors.Is(ferr, kvstore.ErrCorrupt) {
				return fmt.Errorf("tier: recovering demotion of %q: %w", k, ferr)
			}
			// A corrupt copy never wins the settle: keep the intact one
			// (damage on both sides keeps cold — either choice serves
			// ErrCorrupt until repair re-derives the replica, and cold is
			// where a completed demotion would have left the key).
			victim := s.fast[i]
			switch {
			case cerr != nil && ferr == nil:
				victim = s.cold[i]
			case cerr == nil && ferr != nil:
				// victim stays fast
			case cerr == nil && ferr == nil && !bytes.Equal(fv, cv):
				victim = s.cold[i]
			}
			if err := victim.Delete(k); err != nil {
				return fmt.Errorf("tier: recovering demotion of %q: %w", k, err)
			}
		}
	}
	return nil
}

// Shards returns the per-tier shard count.
func (s *Store) Shards() int { return s.shards }

func (s *Store) shardOf(key string) int {
	token := key
	if s.opts.Route != nil {
		token = s.opts.Route(key)
	}
	h := fnv.New32a()
	h.Write([]byte(token))
	return int(h.Sum32() % uint32(s.shards))
}

func (s *Store) tier(t ID) []*kvstore.Store {
	if t == Cold {
		return s.cold
	}
	return s.fast
}

// Put stores value under key in the fast tier (the default for
// placement-less writers, e.g. server metadata).
func (s *Store) Put(key string, value []byte) error {
	return s.PutTier(Fast, key, value)
}

// PutTier stores value under key in the given tier — how
// derivation-driven placement lands each storage format on its medium.
// The other tier's copy, if any, is removed so the key stays live in
// exactly one tier; the new value is fsynced first, so a crash between
// the write and the cross-tier delete can never leave the key torn in
// one tier and tombstoned in the other (recovery then keeps the newer
// write — see recoverDemotions).
func (s *Store) PutTier(t ID, key string, value []byte) error {
	i := s.shardOf(key)
	if err := s.tier(t)[i].Put(key, value); err != nil {
		return err
	}
	other := Fast
	if t == Fast {
		other = Cold
	}
	if s.tier(other)[i].Has(key) {
		if err := s.tier(t)[i].Sync(); err != nil {
			return err
		}
		return s.tier(other)[i].Delete(key)
	}
	return nil
}

// Get returns the value stored under key in a buffer the caller owns: GetInto
// with nothing lent.
func (s *Store) Get(key string) ([]byte, error) { return s.GetInto(key, new([]byte)) }

// GetInto returns the value stored under key, reading through fast→cold: the
// fast tier is consulted first, and a demoted key serves byte-identically
// from cold. A fast read that fails for any reason — a corrupt record, a
// failing device — is treated as a miss and falls through to the cold
// replica, so one damaged tier degrades a stream instead of taking it
// down. If the cold tier has no copy either, the original fast error is
// returned (it carries the real diagnosis: the data exists but is
// damaged, not absent). buf goes to whichever shard reads — the cold one
// after a failed fast one — and is kept nowhere here, so kvstore.GetInto's
// lending rule carries over.
func (s *Store) GetInto(key string, buf *[]byte) ([]byte, error) {
	i := s.shardOf(key)
	v, err := s.fast[i].GetInto(key, buf)
	if err == nil {
		return v, nil
	}
	cv, cerr := s.cold[i].GetInto(key, buf)
	if cerr == nil {
		return cv, nil
	}
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, cerr
	}
	return nil, err
}

// Has reports whether key is present in either tier.
func (s *Store) Has(key string) bool {
	i := s.shardOf(key)
	return s.fast[i].Has(key) || s.cold[i].Has(key)
}

// TierOf returns the tier holding key. A key mid-demotion (live in both
// tiers) reports Fast, matching what Get serves.
func (s *Store) TierOf(key string) (ID, bool) {
	i := s.shardOf(key)
	if s.fast[i].Has(key) {
		return Fast, true
	}
	if s.cold[i].Has(key) {
		return Cold, true
	}
	return Fast, false
}

// Delete removes key from both tiers. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) error {
	i := s.shardOf(key)
	if err := s.fast[i].Delete(key); err != nil {
		return err
	}
	return s.cold[i].Delete(key)
}

// Keys returns all live keys with the given prefix across every shard of
// both tiers, sorted and deduplicated (a key mid-demotion appears once).
func (s *Store) Keys(prefix string) []string {
	var out []string
	for i := 0; i < s.shards; i++ {
		out = append(out, s.fast[i].Keys(prefix)...)
		out = append(out, s.cold[i].Keys(prefix)...)
	}
	sort.Strings(out)
	dedup := out[:0]
	for i, k := range out {
		if i > 0 && out[i-1] == k {
			continue
		}
		dedup = append(dedup, k)
	}
	return dedup
}

// Scan calls fn for every live key with the given prefix in sorted key
// order, reading each value through the tiers. Scanning stops early if fn
// returns false.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	for _, k := range s.Keys(prefix) {
		v, err := s.Get(k)
		if errors.Is(err, kvstore.ErrNotFound) {
			continue // deleted between listing and read
		}
		if err != nil {
			return err
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// Demote migrates the given keys fast→cold with crash-safe two-phase
// copy-then-delete: every cold copy is written and fsynced before any
// fast record is deleted, in the given key order for both phases. Keys
// already cold or absent are skipped. A crash between the phases leaves
// keys live in both tiers; Open completes the migration. Callers must
// not PutTier the same keys concurrently (the owner — the server —
// serialises demotion against writers).
func (s *Store) Demote(keys []string) error {
	copied := make([]int, 0, len(keys)) // shard of each key needing deletion
	live := make([]string, 0, len(keys))
	synced := make(map[int]bool)
	for _, k := range keys {
		i := s.shardOf(k)
		v, err := s.fast[i].Get(k)
		if errors.Is(err, kvstore.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if err := s.cold[i].Put(k, v); err != nil {
			return err
		}
		copied = append(copied, i)
		live = append(live, k)
		synced[i] = false
	}
	// Durability barrier: the cold copies must survive a power cut
	// before the first fast delete hits a log, or the replay could apply
	// a surviving tombstone against a torn (vanished) cold copy and lose
	// the key in both tiers.
	for i := range synced {
		if err := s.cold[i].Sync(); err != nil {
			return err
		}
	}
	for n, k := range live {
		if err := s.fast[copied[n]].Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// TierBytes returns the tier's live value bytes across all shards — the
// quantity the fast-tier budget bounds.
func (s *Store) TierBytes(t ID) int64 {
	var total int64
	for _, kv := range s.tier(t) {
		total += kv.Stats().LiveBytes
	}
	return total
}

// TierStats returns the tier's aggregated occupancy counters.
func (s *Store) TierStats(t ID) kvstore.Stats {
	var out kvstore.Stats
	for _, kv := range s.tier(t) {
		st := kv.Stats()
		out.Keys += st.Keys
		out.LiveBytes += st.LiveBytes
		out.GarbageBytes += st.GarbageBytes
		out.Files += st.Files
		out.CorruptReads += st.CorruptReads
		out.TransientReads += st.TransientReads
	}
	return out
}

// Stats is the engine's occupancy: both tiers' counters summed, and the
// per-tier breakdown beside them.
type Stats struct {
	kvstore.Stats
	Shards        int
	FastKeys      int
	ColdKeys      int
	FastLiveBytes int64
	ColdLiveBytes int64
}

// Stats returns occupancy counters aggregated over both tiers, with the
// per-tier breakdown in the tier fields.
func (s *Store) Stats() Stats {
	f, c := s.TierStats(Fast), s.TierStats(Cold)
	return Stats{
		Stats: kvstore.Stats{
			Keys:           f.Keys + c.Keys,
			LiveBytes:      f.LiveBytes + c.LiveBytes,
			GarbageBytes:   f.GarbageBytes + c.GarbageBytes,
			Files:          f.Files + c.Files,
			CorruptReads:   f.CorruptReads + c.CorruptReads,
			TransientReads: f.TransientReads + c.TransientReads,
		},
		Shards:        s.shards,
		FastKeys:      f.Keys,
		ColdKeys:      c.Keys,
		FastLiveBytes: f.LiveBytes,
		ColdLiveBytes: c.LiveBytes,
	}
}

// Sync fsyncs every shard of both tiers — the durability barrier the
// repair layer uses after committing a re-derived replica.
func (s *Store) Sync() error {
	for i := 0; i < s.shards; i++ {
		if err := s.fast[i].Sync(); err != nil {
			return err
		}
		if err := s.cold[i].Sync(); err != nil {
			return err
		}
	}
	return nil
}

// BadKey locates one damaged key: the tier and shard it lives on, for
// per-shard health reporting.
type BadKey struct {
	Key   string
	Tier  ID
	Shard int
}

// VerifyAll runs checksum verification over every record of every shard
// in both tiers — the scrubber's walk. It returns the damaged keys in
// sorted key order; an empty slice means the whole store is intact.
func (s *Store) VerifyAll() ([]BadKey, error) {
	var out []BadKey
	for i := 0; i < s.shards; i++ {
		for _, t := range []ID{Fast, Cold} {
			bad, err := s.tier(t)[i].VerifyAll()
			if err != nil {
				return nil, fmt.Errorf("tier: verify %s/%03d: %w", t, i, err)
			}
			for _, k := range bad {
				out = append(out, BadKey{Key: k, Tier: t, Shard: i})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out, nil
}

// DamageValue flips one stored bit of key's record in whichever tier
// holds it — the on-disk bit-rot simulator behind `vstore damage` and
// the scrub smoke test. Returns kvstore.ErrNotFound for absent keys.
func (s *Store) DamageValue(key string) error {
	i := s.shardOf(key)
	if s.fast[i].Has(key) {
		return s.fast[i].DamageValue(key)
	}
	if s.cold[i].Has(key) {
		return s.cold[i].DamageValue(key)
	}
	return kvstore.ErrNotFound
}

// CompactShards rewrites every shard of both tiers, fanning the per-shard
// compactions across p (sched.Ordered) — shards lock independently, so
// compactions proceed in parallel on the pool's free slots. A nil p
// compacts sequentially. Every shard is attempted either way; the first
// shard's error, in shard order, is returned.
func (s *Store) CompactShards(p *sched.Pool) error {
	errs := make([]error, 2*s.shards)
	sched.Ordered(p, len(errs), func(i int) (struct{}, error) {
		errs[i] = s.tier(ID(i % 2))[i/2].Compact()
		return struct{}{}, nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close releases every shard. The store must not be used afterwards.
func (s *Store) Close() error {
	var firstErr error
	for _, kv := range append(append([]*kvstore.Store(nil), s.fast...), s.cold...) {
		if err := kv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
