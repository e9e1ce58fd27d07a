package retrieve

import (
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/kvstore"
	"repro/internal/segment"
	"repro/internal/vidsim"
)

// rederive recomputes segment idx in sf from the simulated source — the
// same pipeline setup() used to ingest it, so the reconstruction is
// byte-identical to the stored replica.
func rederive(t *testing.T, sf format.StorageFormat, idx int) (*codec.Encoded, []*frame.Frame) {
	t.Helper()
	src := vidsim.NewSource(vidsim.Datasets[0])
	full := src.Clip(idx*segment.Frames, segment.Frames)
	tw, th := vidsim.Dims(sf.Fidelity.Res)
	frames := codec.ApplyFidelity(full, sf.Fidelity, tw, th)
	if sf.Coding.Raw {
		return nil, frames
	}
	enc, _, err := codec.Encode(frames, codec.ParamsFor(sf))
	if err != nil {
		t.Fatal(err)
	}
	return enc, nil
}

// TestDegradedServeEncoded: a corrupt encoded replica fails the query
// without a rebuild hook, and answers byte-identically through one — with
// the degraded serve counted and reported.
func TestDegradedServeEncoded(t *testing.T) {
	r, encSF, _ := setup(t)
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QGood, Crop: format.Crop100, Res: 200, Sampling: s16}}
	want, _, err := r.Segment("cam", encSF, cf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := r.Store.(*segment.Store)
	if err := store.DamageRef(segment.RefOf("cam", encSF, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Segment("cam", encSF, cf, 0, nil); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("no rebuild hook: err = %v, want ErrCorrupt", err)
	}

	var gotStream string
	var gotSeg = -1
	r.Rebuild = func(stream string, seg int, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
		enc, _ := rederive(t, sf, seg)
		return enc, nil, nil
	}
	r.OnDegraded = func(stream string, seg int, sf format.StorageFormat) {
		gotStream, gotSeg = stream, seg
	}
	got, st, err := r.Segment("cam", encSF, cf, 0, nil)
	if err != nil {
		t.Fatalf("degraded serve failed: %v", err)
	}
	if st.Degraded != 1 {
		t.Fatalf("Stats.Degraded = %d, want 1", st.Degraded)
	}
	if gotStream != "cam" || gotSeg != 0 {
		t.Fatalf("OnDegraded(%q, %d), want (cam, 0)", gotStream, gotSeg)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded serve delivered %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !frameEqual(got[i], want[i]) {
			t.Fatalf("frame %d differs from pre-damage retrieval", i)
		}
	}
}

// TestDegradedServeRaw is the raw-format path: the damaged anchor makes
// GetRaw fail, the rebuild supplies the full frame set, and sampling and
// the within filter still apply to the reconstruction.
func TestDegradedServeRaw(t *testing.T) {
	r, _, rawSF := setup(t)
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: s130}}
	want, _, err := r.Segment("cam", rawSF, cf, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := r.Store.(*segment.Store)
	if err := store.DamageRef(segment.RefOf("cam", rawSF, 1)); err != nil {
		t.Fatal(err)
	}
	r.Rebuild = func(stream string, seg int, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
		_, frames := rederive(t, sf, seg)
		return nil, frames, nil
	}
	got, st, err := r.Segment("cam", rawSF, cf, 1, nil)
	if err != nil {
		t.Fatalf("degraded raw serve failed: %v", err)
	}
	if st.Degraded != 1 {
		t.Fatalf("Stats.Degraded = %d, want 1", st.Degraded)
	}
	if len(got) != len(want) {
		t.Fatalf("degraded serve delivered %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if !frameEqual(got[i], want[i]) {
			t.Fatalf("frame %d differs from pre-damage retrieval", i)
		}
	}
}

// TestDegradedServeNeverCached: with a cache configured, a degraded serve
// must not populate it — every repeat query rebuilds (and re-reports)
// until the replica is repaired, and the repaired replica is then read
// from disk, not shadowed by best-effort cached frames.
func TestDegradedServeNeverCached(t *testing.T) {
	r, encSF, _ := setup(t)
	r.Cache = NewCache(1 << 24)
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QGood, Crop: format.Crop100, Res: 200, Sampling: s16}}
	store := r.Store.(*segment.Store)
	if err := store.DamageRef(segment.RefOf("cam", encSF, 0)); err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	r.Rebuild = func(stream string, seg int, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
		rebuilds++
		enc, _ := rederive(t, sf, seg)
		return enc, nil, nil
	}
	for i := 0; i < 2; i++ {
		_, st, err := r.Segment("cam", encSF, cf, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Degraded != 1 {
			t.Fatalf("call %d: Degraded = %d, want 1 (degraded serve was cached?)", i, st.Degraded)
		}
	}
	if rebuilds != 2 {
		t.Fatalf("rebuilds = %d, want 2: degraded output must not be cached", rebuilds)
	}
	// Repair the replica; the next retrieval reads the stored copy again.
	enc, _ := rederive(t, encSF, 0)
	if err := store.PutEncoded("cam", encSF, 0, enc); err != nil {
		t.Fatal(err)
	}
	_, st, err := r.Segment("cam", encSF, cf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 0 {
		t.Fatal("post-repair retrieval still degraded")
	}
	if rebuilds != 2 {
		t.Fatalf("post-repair retrieval invoked rebuild (%d calls)", rebuilds)
	}
}

// TestRebuildFailureSurfacesOriginalError: when re-derivation itself
// fails (e.g. every ancestor is gone too), the caller sees the original
// read error, not a rebuild artifact.
func TestRebuildFailureSurfacesOriginalError(t *testing.T) {
	r, encSF, _ := setup(t)
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QGood, Crop: format.Crop100, Res: 200, Sampling: s16}}
	store := r.Store.(*segment.Store)
	if err := store.DamageRef(segment.RefOf("cam", encSF, 0)); err != nil {
		t.Fatal(err)
	}
	r.Rebuild = func(stream string, seg int, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
		return nil, nil, errors.New("ancestors gone")
	}
	fired := false
	r.OnDegraded = func(string, int, format.StorageFormat) { fired = true }
	if _, _, err := r.Segment("cam", encSF, cf, 0, nil); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("err = %v, want the original ErrCorrupt", err)
	}
	if fired {
		t.Fatal("OnDegraded fired for a failed serve")
	}
}

func frameEqual(a, b *frame.Frame) bool {
	if a.PTS != b.PTS || a.W != b.W || a.H != b.H || len(a.Y) != len(b.Y) {
		return false
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			return false
		}
	}
	return true
}

// TestDegradedServeRawMidSegment damages one frame record past the first of
// a raw segment read by a converting binding: frames already scaled out of
// the borrowed buffer are dropped, the segment is rebuilt and served
// degraded with the answer of the undamaged store, and the cache takes
// neither the partial output nor the rebuild.
func TestDegradedServeRawMidSegment(t *testing.T) {
	r, _, rawSF := setup(t)
	r.Cache = NewCache(1 << 24)
	cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
		Quality: format.QGood, Crop: format.Crop100, Res: 100, Sampling: s11}}
	want, wantSt, err := (&Retriever{Store: r.Store}).Segment("cam", rawSF, cf, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tw, _ := vidsim.Dims(100); want[0].W != tw {
		t.Fatal("the binding converts nothing; the test would prove nothing")
	}
	kv := r.Store.(*segment.Store).KV().(*kvstore.Store)
	var records []string
	for _, k := range kv.Keys("raw/cam/") {
		if ref, ok := segment.ParseKey(k); ok && ref.Idx == 1 {
			records = append(records, k)
		}
	}
	if len(records) != segment.Frames {
		t.Fatalf("found %d frame records of segment 1, want %d", len(records), segment.Frames)
	}
	if err := kv.DamageValue(records[7]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Segment("cam", rawSF, cf, 1, nil); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("no rebuild hook: err = %v, want ErrCorrupt", err)
	}
	r.Rebuild = func(stream string, seg int, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
		_, frames := rederive(t, sf, seg)
		return nil, frames, nil
	}
	for pass := 0; pass < 2; pass++ {
		got, st, err := r.Segment("cam", rawSF, cf, 1, nil)
		if err != nil {
			t.Fatalf("degraded raw serve failed: %v", err)
		}
		if st.Degraded != 1 || st.BytesRead != 0 || st.FramesDelivered != wantSt.FramesDelivered {
			t.Fatalf("pass %d: stats %+v, want a degraded serve of %d frames read from no record", pass, st, wantSt.FramesDelivered)
		}
		assertFramesEqual(t, got, want)
	}
	if st := r.Cache.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("a degraded serve reached the cache: %+v", st)
	}
}
