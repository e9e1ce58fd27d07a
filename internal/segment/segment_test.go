package segment

import (
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/kvstore"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	kv, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	return NewStore(kv)
}

var (
	encSF = format.StorageFormat{
		Fidelity: format.Fidelity{Quality: format.QGood, Crop: format.Crop100, Res: 180, Sampling: format.Sampling{Num: 1, Den: 1}},
		Coding:   format.Coding{Speed: format.SpeedFast, KeyframeI: 10},
	}
	rawSF = format.StorageFormat{
		Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: format.Sampling{Num: 1, Den: 1}},
		Coding:   format.RawCoding,
	}
)

func clip(t *testing.T, start, n int) []*frame.Frame {
	t.Helper()
	src := vidsim.NewSource(vidsim.Datasets[0])
	frames := src.Clip(start, n)
	for i, f := range frames {
		frames[i] = f.Downscale(40, 22)
		frames[i].PTS = f.PTS
	}
	return frames
}

func TestEncodedRoundTrip(t *testing.T) {
	s := newStore(t)
	frames := clip(t, 0, 24)
	enc, _, err := codec.Encode(frames, codec.ParamsFor(encSF))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEncoded("cam", encSF, 3, enc); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetEncoded("cam", encSF, 3)
	if err != nil {
		t.Fatal(err)
	}
	d1, _, _ := enc.Decode()
	d2, _, err := got.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if !frame.Equal(d1[i], d2[i]) {
			t.Fatalf("frame %d differs after storage round trip", i)
		}
	}
}

func TestEncodedMissing(t *testing.T) {
	s := newStore(t)
	if _, err := s.GetEncoded("cam", encSF, 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing segment: %v", err)
	}
}

func TestRawRoundTripAndSampledRead(t *testing.T) {
	s := newStore(t)
	frames := clip(t, 100, 30)
	if err := s.PutRaw("cam", rawSF, 0, frames); err != nil {
		t.Fatal(err)
	}
	all, readAll, err := s.GetRaw("cam", rawSF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 30 {
		t.Fatalf("read %d frames, want 30", len(all))
	}
	for i := range all {
		if !frame.Equal(all[i], frames[i]) {
			t.Fatalf("raw frame %d corrupted", i)
		}
	}
	// Sampled read touches only the kept frames' bytes.
	some, readSome, err := s.GetRaw("cam", rawSF, 0, func(pts int) bool { return pts%10 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 3 {
		t.Fatalf("sampled read: %d frames, want 3", len(some))
	}
	if readSome*9 > readAll {
		t.Fatalf("sampled read traffic %d not ~1/10 of full %d", readSome, readAll)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	s := newStore(t)
	frames := clip(t, 0, 5)
	enc, _, _ := codec.Encode(frames, codec.ParamsFor(encSF))
	if err := s.PutEncoded("cam", rawSF, 0, enc); err == nil {
		t.Error("PutEncoded accepted raw format")
	}
	if err := s.PutRaw("cam", encSF, 0, frames); err == nil {
		t.Error("PutRaw accepted encoded format")
	}
	if err := s.PutRaw("cam", rawSF, 0, nil); err == nil {
		t.Error("empty raw segment accepted")
	}
}

func TestSegmentsListingAndDelete(t *testing.T) {
	s := newStore(t)
	for _, idx := range []int{5, 1, 3} {
		frames := clip(t, idx*Frames, 10)
		enc, _, _ := codec.Encode(frames, codec.ParamsFor(encSF))
		if err := s.PutEncoded("cam", encSF, idx, enc); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Segments("cam", encSF)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Segments = %v", got)
	}
	if !s.Has("cam", encSF, 3) {
		t.Fatal("Has(3) = false")
	}
	if err := s.Delete("cam", encSF, 3); err != nil {
		t.Fatal(err)
	}
	if s.Has("cam", encSF, 3) {
		t.Fatal("segment survives delete")
	}
	if got := s.Segments("cam", encSF); len(got) != 2 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestRawDeleteRemovesAllRecords(t *testing.T) {
	s := newStore(t)
	frames := clip(t, 0, 12)
	if err := s.PutRaw("cam", rawSF, 7, frames); err != nil {
		t.Fatal(err)
	}
	if got := s.KV().Keys(""); len(got) == 0 {
		t.Fatal("raw put stored no records")
	}
	if err := s.Delete("cam", rawSF, 7); err != nil {
		t.Fatal(err)
	}
	if got := s.KV().Keys(""); len(got) != 0 {
		t.Fatalf("records remain after raw delete: %v", got)
	}
	if _, _, err := s.GetRaw("cam", rawSF, 7, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetRaw after delete: %v", err)
	}
}

func TestSegmentsSeparateFormats(t *testing.T) {
	s := newStore(t)
	frames := clip(t, 0, 10)
	enc, _, _ := codec.Encode(frames, codec.ParamsFor(encSF))
	if err := s.PutEncoded("cam", encSF, 0, enc); err != nil {
		t.Fatal(err)
	}
	other := encSF
	other.Coding.KeyframeI = 50
	if got := s.Segments("cam", other); len(got) != 0 {
		t.Fatalf("Segments(other) = %v, want none", got)
	}
	if got := s.Segments("cam", encSF); len(got) != 1 {
		t.Fatalf("Segments(encSF) = %v, want [0]", got)
	}
	// Streams are isolated too.
	if got := s.Segments("cam2", encSF); len(got) != 0 {
		t.Fatalf("Segments(cam2) = %v", got)
	}
}

// failingKV fails the failAt-th Put (1-based) and every one after it: a
// process that died partway through a write, seen from the next open.
type failingKV struct {
	KV
	failAt, puts int
}

func (f *failingKV) Put(key string, value []byte) error {
	if f.puts++; f.puts >= f.failAt {
		return errors.New("failingKV: crashed")
	}
	return f.KV.Put(key, value)
}

// TestTornRawWriteNeverCommits: a raw replica is many records, and the
// metadata anchor is the one that commits it — ScanRefs rebuilds the
// manifest at open from the anchors it finds, and the reader never compares
// the frames listed with the anchor's count. So whichever record a write is
// interrupted at, through any of the three entry points (ingest, repair on
// an explicit tier, adoption from a peer), a fresh scan of the same store
// must not report the replica. With the anchor written first, as the ingest
// path once did, every k > 1 resurrected a truncated segment as committed.
func TestTornRawWriteNeverCommits(t *testing.T) {
	frames := clip(t, 0, 6)
	ref := RefOf("cam", rawSF, 3)
	fast := tier.Fast
	writers := map[string]func(*Store) error{
		"PutRaw":         func(s *Store) error { return s.PutRaw("cam", rawSF, 3, frames) },
		"PutRawRef":      func(s *Store) error { return s.PutRawRef(ref, nil, frames) },
		"PutRawRef@tier": func(s *Store) error { return s.PutRawRef(ref, &fast, frames) },
	}
	records := len(frames) + 1
	for name, write := range writers {
		for k := 1; k <= records+1; k++ {
			kv, err := kvstore.Open(t.TempDir(), kvstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			err = write(NewStore(&failingKV{KV: kv, failAt: k}))
			var found []Ref
			NewStore(kv).ScanRefs(func(r Ref) { found = append(found, r) })
			kv.Close()
			switch {
			case k <= records && err == nil:
				t.Fatalf("%s: write survived a failure at record %d of %d", name, k, records)
			case k <= records && len(found) != 0:
				t.Fatalf("%s: failure at record %d of %d left %v committed", name, k, records, found)
			case k > records && (err != nil || len(found) != 1 || found[0] != ref):
				t.Fatalf("%s: uninterrupted write: err %v, scan found %v", name, err, found)
			}
		}
	}
}
