package tier

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/kvstore"
)

func installFaults(t *testing.T, seed uint64, spec string) {
	t.Helper()
	rules, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.New(seed, rules))
	t.Cleanup(func() { fault.Install(nil) })
}

// TestCorruptFastFallsThroughToCold: a damaged fast replica must not
// take the key down when a cold copy exists — the read degrades, it
// does not fail.
func TestCorruptFastFallsThroughToCold(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	val := bytes.Repeat([]byte{0x42}, 300)
	if err := s.PutTier(Cold, "seg/cam/sf1/00000000", val); err != nil {
		t.Fatal(err)
	}
	// A second, richer copy placed fast — then damaged on disk.
	if err := s.PutTier(Fast, "seg/cam/sf1/00000000", val); err != nil {
		t.Fatal(err)
	}
	// PutTier(Fast) deletes the cold copy; rebuild the two-copy state
	// directly on the shards to model a replica pair.
	i := s.shardOf("seg/cam/sf1/00000000")
	if err := s.cold[i].Put("seg/cam/sf1/00000000", val); err != nil {
		t.Fatal(err)
	}
	if err := s.fast[i].DamageValue("seg/cam/sf1/00000000"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("seg/cam/sf1/00000000")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("Get through corrupt fast = %v (len %d), want cold bytes", err, len(got))
	}
	if s.Stats().CorruptReads == 0 {
		t.Fatal("corrupt fast read not counted")
	}
}

// TestCorruptOnlyCopySurfacesOriginalError: when the only replica is
// damaged, the caller sees ErrCorrupt (data exists but is damaged), not
// ErrNotFound (data was never there) — the repair layer keys off the
// difference.
func TestCorruptOnlyCopySurfacesOriginalError(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	if err := s.PutTier(Fast, "k", []byte("only-copy")); err != nil {
		t.Fatal(err)
	}
	if err := s.DamageValue("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, kvstore.ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	if _, err := s.Get("absent"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
}

// TestFastShardOutageServesFromCold: an injected whole-tier read outage
// on fast shards must leave cold-resident keys fully readable — the
// availability property the vload fault-probe asserts end to end.
func TestFastShardOutageServesFromCold(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("seg/cam/sf0/%08d", i)
		if err := s.PutTier(Cold, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	installFaults(t, 1, "read@fast/=err")
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("seg/cam/sf0/%08d", i)
		v, err := s.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("Get(%s) during fast outage = %q, %v", k, v, err)
		}
	}
}

func TestVerifyAllLocatesDamage(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key-%d", i)
		tier := Fast
		if i%2 == 0 {
			tier = Cold
		}
		if err := s.PutTier(tier, k, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := s.VerifyAll()
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean store: %v %v", bad, err)
	}
	if err := s.DamageValue("key-3"); err != nil { // fast
		t.Fatal(err)
	}
	if err := s.DamageValue("key-4"); err != nil { // cold
		t.Fatal(err)
	}
	bad, err = s.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0].Key != "key-3" || bad[1].Key != "key-4" {
		t.Fatalf("VerifyAll = %+v, want key-3 and key-4", bad)
	}
	if bad[0].Tier != Fast || bad[1].Tier != Cold {
		t.Fatalf("tiers = %v/%v, want fast/cold", bad[0].Tier, bad[1].Tier)
	}
}

// TestRecoverySettlesCorruptDuplicates: a key live in both tiers (crash
// mid-demotion) where one copy is damaged must settle keeping the intact
// copy — and must not make the store unopenable.
func TestRecoverySettlesCorruptDuplicates(t *testing.T) {
	for _, damage := range []ID{Fast, Cold} {
		t.Run(damage.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			val := bytes.Repeat([]byte{0x11}, 128)
			// Duplicate by writing the shards directly (PutTier would
			// delete the other copy).
			if err := s.fast[0].Put("dup", val); err != nil {
				t.Fatal(err)
			}
			if err := s.cold[0].Put("dup", val); err != nil {
				t.Fatal(err)
			}
			if err := s.tier(damage)[0].DamageValue("dup"); err != nil {
				t.Fatal(err)
			}
			s.Close()

			s2, err := Open(dir, Options{Shards: 1})
			if err != nil {
				t.Fatalf("reopen with corrupt duplicate: %v", err)
			}
			defer s2.Close()
			got, err := s2.Get("dup")
			if err != nil || !bytes.Equal(got, val) {
				t.Fatalf("Get after settle = %v, want intact copy", err)
			}
			// Exactly one copy survived — the intact one.
			intact := Fast
			if damage == Fast {
				intact = Cold
			}
			if s2.tier(damage)[0].Has("dup") {
				t.Fatalf("damaged %s copy survived the settle", damage)
			}
			if !s2.tier(intact)[0].Has("dup") {
				t.Fatalf("intact %s copy was deleted", intact)
			}
		})
	}
}

func TestTierDamageValueMissing(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 1})
	if err := s.DamageValue("nope"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("DamageValue(missing) = %v", err)
	}
}

// TestGetReturnsOwnedBuffer is kvstore's test of the same name through the
// tiers: a value served from either tier — the cold one by fall-through —
// is the caller's to overwrite, with and without read flips armed.
func TestGetReturnsOwnedBuffer(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	vals := map[string][]byte{}
	for i, tr := range []ID{Fast, Cold} {
		k := fmt.Sprintf("raw/cam/sf/00000000/%08d", i)
		vals[k] = bytes.Repeat([]byte{byte(0x30 + i), 0x0C}, 1500)
		if err := s.PutTier(tr, k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	scribbleAndReread := func(round string) (served int) {
		for i := 0; i < 40; i++ {
			for k, want := range vals {
				v, err := s.Get(k)
				if errors.Is(err, kvstore.ErrCorrupt) && fault.Enabled() {
					continue // both reads of this Get drew a flip
				}
				if err != nil {
					t.Fatalf("%s: Get %s: %v", round, k, err)
				}
				if !bytes.Equal(v, want) {
					t.Fatalf("%s: Get %s returned bytes an earlier caller overwrote", round, k)
				}
				for j := range v {
					v[j] ^= 0xFF
				}
				served++
			}
		}
		return served
	}
	scribbleAndReread("no faults")

	installFaults(t, 3, "read=flip:0.4")
	if served := scribbleAndReread("flips armed"); served == 0 {
		t.Fatal("no Get survived the flips; lower the rate")
	}
	if s.Stats().TransientReads == 0 {
		t.Fatal("no Get was served from its re-read; the flip rule proved nothing")
	}
	fault.Install(nil)
	if bad, err := s.VerifyAll(); err != nil || len(bad) != 0 {
		t.Fatalf("logs damaged by writes to returned values: %v %v", bad, err)
	}
}

// TestCorruptFastFallsThroughIntoLentBuffer: the cold read that follows a
// corrupt fast one lands in the buffer the caller lent, not in a new one.
func TestCorruptFastFallsThroughIntoLentBuffer(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	const k, other = "raw/cam/sf/00000000/00000001", "raw/cam/sf/00000000/00000002"
	val := bytes.Repeat([]byte{0x42, 0x17}, 1500)
	i := s.shardOf(k)
	for _, kv := range []*kvstore.Store{s.fast[i], s.cold[i]} {
		if err := kv.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutTier(Fast, other, bytes.Repeat([]byte{0x99}, len(val))); err != nil {
		t.Fatal(err)
	}
	if err := s.fast[i].DamageValue(k); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	if _, err := s.GetInto(other, &buf); err != nil { // sizes the buffer
		t.Fatal(err)
	}
	lent := &buf[0]
	got, err := s.GetInto(k, &buf)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("GetInto through corrupt fast = %v (len %d), want cold bytes", err, len(got))
	}
	if &buf[0] != lent || &got[len(got)-1] != &buf[len(buf)-1] {
		t.Fatal("the cold read did not land in the lent buffer")
	}
	if st := s.Stats(); st.CorruptReads != 1 || st.TransientReads != 0 {
		t.Fatalf("CorruptReads=%d TransientReads=%d, want 1 and 0", st.CorruptReads, st.TransientReads)
	}
}
