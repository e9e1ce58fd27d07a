package retrieve

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/kvstore"
	"repro/internal/profile"
	"repro/internal/segment"
	"repro/internal/vidsim"
)

// refConvertFidelity is convertFidelity as it stood while the raw path
// materialised a segment at storage resolution and converted it afterwards,
// kept verbatim as the oracle for the conversion that runs inside the read.
func refConvertFidelity(frames []*frame.Frame, sf format.StorageFormat, cf format.ConsumptionFormat) ([]*frame.Frame, int64) {
	var pixels int64
	for _, f := range frames {
		pixels += int64(f.NumPixels())
	}
	tw, th := vidsim.Dims(cf.Fidelity.Res)
	if len(frames) > 0 {
		tw = min(tw, frames[0].W)
		th = min(th, frames[0].H)
	}
	var out []*frame.Frame
	switch {
	case len(frames) == 0:
		out = make([]*frame.Frame, 0)
	case cf.Fidelity.Crop == format.Crop100 && tw == frames[0].W && th == frames[0].H:
		out = frames
	case cf.Fidelity.Crop == format.Crop100:
		batch := frame.NewBatch(tw, th, len(frames))
		for i, f := range frames {
			f.DownscaleInto(batch[i])
		}
		out = batch
	default:
		out = make([]*frame.Frame, 0, len(frames))
		for _, f := range frames {
			g := f.Downscale(tw, th)
			g = g.CropCenter(cf.Fidelity.Crop.Fraction())
			out = append(out, g)
		}
	}
	if cf.Fidelity.Quality < sf.Fidelity.Quality {
		codec.ApplyQuality(out, cf.Fidelity.Quality)
	}
	return out, pixels
}

// refRawSegment is the raw branch of SegmentTagged as it stood with it: the
// kept frames collected, then converted, and the stats in the order the
// branch added them up.
func refRawSegment(t *testing.T, store *segment.Store, sf format.StorageFormat, cf format.ConsumptionFormat, idx int, within func(int) bool) ([]*frame.Frame, Stats) {
	t.Helper()
	got, read, err := store.GetRaw("cam", sf, idx, rawKeep(cf.Fidelity.Sampling, within))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	st.BytesRead = read
	st.VirtualSeconds += profile.RawReadSeconds(read, len(got))
	out, pixels := refConvertFidelity(got, sf, cf)
	st.VirtualSeconds += profile.TransformSeconds(pixels)
	st.FramesDelivered = int64(len(out))
	return out, st
}

// TestRawVisitMatchesMaterialisedReference draws raw segments of random
// dimensions and bindings of every shape — identity, downscale, crop, with
// and without a quality step, at samplings 1, 1/2, 1/6 and 1/30, whole or
// within a span — and requires the retrieval that converts inside the read
// to deliver the frames and the Stats, bit for bit, of the reference that
// materialised the segment first; with the cache on, also on the hit.
func TestRawVisitMatchesMaterialisedReference(t *testing.T) {
	samplings := []format.Sampling{s11, {Num: 1, Den: 2}, s16, s130}
	shapes := map[string]int{}
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kv, err := kvstore.Open(t.TempDir(), kvstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		store := segment.NewStore(kv)
		sf := format.StorageFormat{
			Fidelity: format.Fidelity{Quality: format.Qualities[1+rng.Intn(3)], Crop: format.Crop100, Res: 720, Sampling: s11},
			Coding:   format.RawCoding,
		}
		// Stored dimensions: any even size, or exactly a consumption
		// resolution's, which the identity path needs.
		w, h := 2+2*rng.Intn(100), 2+2*rng.Intn(60)
		if rng.Intn(3) == 0 {
			w, h = vidsim.Dims(format.Resolutions[rng.Intn(len(format.Resolutions))])
		}
		const idx = 3
		frames := make([]*frame.Frame, 30+rng.Intn(60))
		for i := range frames {
			f := frame.New(w, h)
			f.PTS = idx*segment.Frames + i
			rng.Read(f.Y)
			rng.Read(f.Cb)
			rng.Read(f.Cr)
			frames[i] = f
		}
		if err := store.PutRaw("cam", sf, idx, frames); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			cf := format.ConsumptionFormat{Fidelity: format.Fidelity{
				Quality:  format.Qualities[rng.Intn(int(sf.Fidelity.Quality)+1)],
				Crop:     format.Crops[rng.Intn(len(format.Crops))],
				Res:      format.Resolutions[rng.Intn(len(format.Resolutions))],
				Sampling: samplings[rng.Intn(len(samplings))],
			}}
			var within func(int) bool
			tag := ""
			if rng.Intn(2) == 0 {
				lo := frames[0].PTS + rng.Intn(len(frames))
				hi := lo + rng.Intn(len(frames))
				within = func(pts int) bool { return pts >= lo && pts < hi }
				if rng.Intn(2) == 0 {
					tag = fmt.Sprintf("%d-%d", lo, hi)
				}
			}
			what := fmt.Sprintf("seed %d trial %d: %dx%d %v -> %v", seed, trial, w, h, sf.Fidelity.Quality, cf.Fidelity)
			want, wantSt := refRawSegment(t, store, sf, cf, idx, within)
			switch tw, th := vidsim.Dims(cf.Fidelity.Res); {
			case len(want) == 0:
				shapes["empty"]++
			case cf.Fidelity.Crop != format.Crop100:
				shapes["crop"]++
			case tw >= w && th >= h:
				shapes["identity"]++
			default:
				shapes["downscale"]++
			}
			t.Log(what) // shown only if an assertion below fails
			for _, cached := range []bool{false, true} {
				r := &Retriever{Store: store}
				if cached {
					r.Cache = NewCache(1 << 26)
				}
				got, st, err := r.SegmentTagged("cam", sf, cf, idx, within, tag)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertFramesEqual(t, got, want)
				if st != wantSt {
					t.Fatalf("%s (cached=%v): stats %+v, reference %+v", what, cached, st, wantSt)
				}
				if !cached || (within != nil && tag == "") {
					continue
				}
				hit, st, err := r.SegmentTagged("cam", sf, cf, idx, within, tag)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				assertFramesEqual(t, hit, want)
				if (st != Stats{FramesDelivered: wantSt.FramesDelivered}) || r.Cache.Stats().Hits != 1 {
					t.Fatalf("%s: second retrieval was not a hit: %+v, cache %+v", what, st, r.Cache.Stats())
				}
			}
		}
		kv.Close()
	}
	for _, shape := range []string{"identity", "downscale", "crop", "empty"} {
		if shapes[shape] < 8 {
			t.Fatalf("the draws reached the %s shape %d times: %v", shape, shapes[shape], shapes)
		}
	}
}
