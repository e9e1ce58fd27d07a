package segment

import (
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/tier"
)

// TestRouteKey: every record of one (stream, segment) — encoded, raw
// metadata, raw frames, across formats — routes to one token, and
// non-segment keys route by themselves.
func TestRouteKey(t *testing.T) {
	enc := format.StorageFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: format.Resolutions[0], Sampling: format.Samplings[0]}, Coding: format.Coding{Speed: format.SpeedSlowest, KeyframeI: format.KeyframeIntervals[0]}}
	raw := format.StorageFormat{Fidelity: enc.Fidelity, Coding: format.RawCoding}
	keys := []string{
		encKeyOf("cam", enc.Key(), 7),
		rawMetaKeyOf("cam", raw.Key(), 7),
		rawFramePrefixOf("cam", raw.Key(), 7) + "00000000",
		rawFramePrefixOf("cam", raw.Key(), 7) + "00000239",
	}
	want := RouteKey(keys[0])
	for _, k := range keys[1:] {
		if got := RouteKey(k); got != want {
			t.Fatalf("RouteKey(%q) = %q, want %q (co-located)", k, got, want)
		}
	}
	if RouteKey(encKeyOf("cam", enc.Key(), 8)) == want {
		t.Fatal("distinct segments share a routing token")
	}
	if RouteKey(encKeyOf("cam2", enc.Key(), 7)) == want {
		t.Fatal("distinct streams share a routing token")
	}
	// Streams with '/' in the name still co-locate correctly.
	if RouteKey(encKeyOf("a/b", enc.Key(), 7)) != RouteKey(rawMetaKeyOf("a/b", raw.Key(), 7)) {
		t.Fatal("slashed stream name broke routing")
	}
	for _, k := range []string{"meta/epoch/00000000", "garbage", "raw/short"} {
		if got := RouteKey(k); got != k {
			t.Fatalf("RouteKey(%q) = %q, want identity", k, got)
		}
	}
}

// TestTieredStorePlacementAndDemotion: a placement-aware tiered segment
// store writes each format to its tier, reads back identically, and
// DemoteRef migrates a replica's records with the anchor flipping last.
func TestTieredStorePlacementAndDemotion(t *testing.T) {
	ts, err := tier.Open(t.TempDir(), tier.Options{Shards: 2, Route: RouteKey})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	store := NewStore(ts)
	store.SetPlacement(func(sfKey string) tier.ID {
		if sfKey == encSF.Key() {
			return tier.Cold
		}
		return tier.Fast
	})
	frames := clip(t, 0, 6)
	if err := store.PutRaw("cam", rawSF, 0, frames); err != nil {
		t.Fatal(err)
	}
	enc, _, err := codec.Encode(frames, codec.ParamsFor(encSF))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutEncoded("cam", encSF, 0, enc); err != nil {
		t.Fatal(err)
	}
	rRaw, rEnc := RefOf("cam", rawSF, 0), RefOf("cam", encSF, 0)
	if tid, ok := store.TierOf(rRaw); !ok || tid != tier.Fast {
		t.Fatalf("raw replica tier = %v, %v", tid, ok)
	}
	if tid, ok := store.TierOf(rEnc); !ok || tid != tier.Cold {
		t.Fatalf("cold-placed encoded replica tier = %v, %v", tid, ok)
	}
	if store.RefBytes(rRaw) == 0 {
		t.Fatal("RefBytes = 0 for a stored replica")
	}

	before, _, err := store.GetRaw("cam", rawSF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.DemoteRef(rRaw); err != nil {
		t.Fatal(err)
	}
	if tid, _ := store.TierOf(rRaw); tid != tier.Cold {
		t.Fatalf("tier after demotion = %v", tid)
	}
	after, _, err := store.GetRaw("cam", rawSF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("demotion changed raw segment bytes")
	}
	// Idempotent re-demotion.
	if err := store.DemoteRef(rRaw); err != nil {
		t.Fatal(err)
	}
	if err := store.DeleteRef(rRaw); err != nil {
		t.Fatal(err)
	}
	if store.Has("cam", rawSF, 0) {
		t.Fatal("deleted demoted replica still present")
	}
}

// RefBytes returns the stored bytes of one replica's records.
func (s *Store) RefBytes(r Ref) int64 {
	var total int64
	for _, k := range s.refKeys(r) {
		if v, err := s.kv.Get(k); err == nil {
			total += int64(len(v))
		}
	}
	return total
}
