// Aliasing-safety suite for the zero-copy read path: delivered frames may
// share storage with the retrieval cache and with decoder arenas, and the
// public Segment/Range boundary hands out owned copies — so mutating what
// a caller was given must never change what anyone else reads. Run under
// -race via the repo's race job.
package retrieve

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/sched"
	"repro/internal/segment"
)

func aliasSetup(t *testing.T) (*Retriever, format.StorageFormat) {
	t.Helper()
	r, encSF, _ := setup(t)
	r.Cache = NewCache(1 << 30)
	return r, encSF
}

var aliasCF = format.ConsumptionFormat{Fidelity: format.Fidelity{
	Quality: format.QGood, Crop: format.Crop100, Res: 540, Sampling: s11}}

func scribble(frames []*frame.Frame) {
	for _, f := range frames {
		for i := range f.Y {
			f.Y[i] ^= 0xFF
		}
		for i := range f.Cb {
			f.Cb[i] ^= 0xFF
		}
		for i := range f.Cr {
			f.Cr[i] ^= 0xFF
		}
		f.PTS = -1
	}
}

func golden(t *testing.T, r *Retriever, sf format.StorageFormat) []*frame.Frame {
	t.Helper()
	// A cache-bypassing, pooling-free reference copy of the segment.
	prev := codec.SetPooling(false)
	defer codec.SetPooling(prev)
	plain := &Retriever{Store: r.Store}
	ref, _, err := plain.Segment("cam", sf, aliasCF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestMutateOwnedDeliveryLeavesCachePristine scribbles over frames
// returned by the owned-delivery boundary (Segment) — both the miss that
// populated the cache and a subsequent hit — and asserts the cached
// segment still serves the original bytes.
func TestMutateOwnedDeliveryLeavesCachePristine(t *testing.T) {
	r, sf := aliasSetup(t)
	ref := golden(t, r, sf)

	miss, _, err := r.Segment("cam", sf, aliasCF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	scribble(miss)
	hit, _, err := r.Segment("cam", sf, aliasCF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	scribble(hit)
	if st := r.Cache.Stats(); st.Hits == 0 {
		t.Fatalf("second retrieval did not hit the cache: %+v", st)
	}
	// The engine-path view of the cache must be untouched.
	shared, _, err := r.SegmentTagged("cam", sf, aliasCF, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, shared, ref)
}

// TestMutatePooledDecodeOutputLeavesStorePristine scribbles over frames
// produced by the pooled decoder via an uncached retrieval, then re-runs
// the retrieval (pooled scratch now recycled) and asserts byte-identical
// delivery.
func TestMutatePooledDecodeOutputLeavesStorePristine(t *testing.T) {
	r, sf := aliasSetup(t)
	r.Cache = nil // exercise the raw decode path, no cache in front
	first, _, err := r.Segment("cam", sf, aliasCF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := golden(t, r, sf)
	scribble(first)
	again, _, err := r.Segment("cam", sf, aliasCF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, again, ref)
}

// TestPoolReuseDeterminism runs the same retrieval through GOP-parallel
// decode at workers {1, 2, 8}, with pooling on and off, and asserts every
// combination delivers byte-identical frames and stats.
func TestPoolReuseDeterminism(t *testing.T) {
	r, sf := aliasSetup(t)
	r.Cache = nil
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QGood, Crop: format.Crop100, Res: 200, Sampling: s16}}
	ref, refSt, err := r.SegmentTagged("cam", sf, cf, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer codec.SetPooling(codec.SetPooling(true))
	for _, pooling := range []bool{true, false} {
		codec.SetPooling(pooling)
		for _, workers := range []int{1, 2, 8} {
			rr := &Retriever{Store: r.Store, DecodePool: sched.NewPool(workers)}
			for pass := 0; pass < 2; pass++ { // second pass rides recycled buffers
				got, st, err := rr.SegmentTagged("cam", sf, cf, 0, nil, "")
				if err != nil {
					t.Fatalf("pooling=%v workers=%d: %v", pooling, workers, err)
				}
				if st != refSt {
					t.Fatalf("pooling=%v workers=%d: stats %+v != %+v", pooling, workers, st, refSt)
				}
				assertFramesEqual(t, got, ref)
			}
		}
	}
}

// TestConcurrentSharedHitsWithMutatingOwner hammers the cache with
// concurrent zero-copy readers while an owned-delivery caller keeps
// scribbling on its copies — the race job proves no write ever lands on
// shared planes.
func TestConcurrentSharedHitsWithMutatingOwner(t *testing.T) {
	r, sf := aliasSetup(t)
	ref := golden(t, r, sf)
	if _, _, err := r.SegmentTagged("cam", sf, aliasCF, 0, nil, ""); err != nil {
		t.Fatal(err) // warm the cache
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				shared, _, err := r.SegmentTagged("cam", sf, aliasCF, 0, nil, "")
				if err != nil {
					errc <- err
					return
				}
				if !frame.Equal(shared[0], ref[0]) {
					errc <- errFrameCorrupted
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				owned, _, err := r.Segment("cam", sf, aliasCF, 0, nil)
				if err != nil {
					errc <- err
					return
				}
				scribble(owned)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	shared, _, err := r.SegmentTagged("cam", sf, aliasCF, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, shared, ref)
}

// TestRangeOwnedDelivery mirrors the Segment boundary test for Range.
func TestRangeOwnedDelivery(t *testing.T) {
	r, sf := aliasSetup(t)
	got, _, err := r.Range("cam", sf, aliasCF, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*segment.Frames {
		t.Fatalf("range delivered %d frames", len(got))
	}
	scribble(got)
	ref := golden(t, r, sf)
	shared, _, err := r.SegmentTagged("cam", sf, aliasCF, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, shared, ref)
}

// TestMutateAliasedRawDeliveryLeavesStorePristine covers the binding where
// delivered planes are the stored record itself: a raw format read at its
// own resolution (the identity conversion, so nothing is copied) for a
// consumer of lower quality (so the record buffer kvstore.Get returned is
// quantised in place). Scribbling over a delivery must leave the next one,
// the cache and the log untouched, with and without the cache.
func TestMutateAliasedRawDeliveryLeavesStorePristine(t *testing.T) {
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QGood, Crop: format.Crop100, Res: 200, Sampling: s11}}
	for _, cached := range []bool{false, true} {
		r, _, rawSF := setup(t)
		if cached {
			r.Cache = NewCache(1 << 30)
		}
		store := r.Store.(*segment.Store)
		stored, _, err := store.GetRaw("cam", rawSF, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := cloneFrames(stored)
		codec.ApplyQuality(ref, cf.Fidelity.Quality)
		if frame.Equal(ref[0], stored[0]) {
			t.Fatal("the binding quantises nothing; the test would prove nothing")
		}
		for pass := 0; pass < 3; pass++ { // with a cache: one miss, then hits
			got, _, err := r.Segment("cam", rawSF, cf, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertFramesEqual(t, got, ref)
			scribble(got)
		}
		if cached {
			if st := r.Cache.Stats(); st.Hits != 2 {
				t.Fatalf("cached passes did not hit: %+v", st)
			}
			shared, _, err := r.SegmentTagged("cam", rawSF, cf, 0, nil, "")
			if err != nil {
				t.Fatal(err)
			}
			assertFramesEqual(t, shared, ref)
		}
		again, _, err := store.GetRaw("cam", rawSF, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertFramesEqual(t, again, stored)
		if refs, meta, err := store.VerifyAll(); err != nil || len(refs)+len(meta) != 0 {
			t.Fatalf("cached=%v: log damaged by in-place quantisation or a scribble: %v %v %v", cached, refs, meta, err)
		}
	}
}

var errFrameCorrupted = errors.New("concurrent reader observed corrupted cached frame")

func assertFramesEqual(t *testing.T, got, want []*frame.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].PTS != want[i].PTS {
			t.Fatalf("frame %d: PTS %d != %d", i, got[i].PTS, want[i].PTS)
		}
		if !frame.Equal(got[i], want[i]) {
			t.Fatalf("frame %d (pts %d): pixels differ", i, got[i].PTS)
		}
	}
}
