// Package retrieve implements VStore's retrieval stage: segments stream
// from the store through the decoder (skipping GOPs the consumer does not
// sample) and through fidelity conversion to the consumption format (§2.2).
// Raw segments are read frame-by-frame, touching only sampled frames.
package retrieve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/lru"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/vidsim"
)

// Stats accounts one retrieval.
type Stats struct {
	BytesRead       int64
	FramesDecoded   int64
	FramesDelivered int64
	VirtualSeconds  float64
	// Degraded counts segments served by reconstructing a damaged or
	// lost replica from a fallback ancestor instead of reading the
	// subscribed replica. Degraded output may be best-effort (see
	// Retriever.Rebuild), so callers gate caching and materialization
	// on it.
	Degraded int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.BytesRead += other.BytesRead
	s.FramesDecoded += other.FramesDecoded
	s.FramesDelivered += other.FramesDelivered
	s.VirtualSeconds += other.VirtualSeconds
	s.Degraded += other.Degraded
}

// SegmentReader is the read surface the retriever needs from segment
// storage. A bare *segment.Store satisfies it (visibility is physical
// presence); a segment.View satisfies it scoped to a snapshot, which is
// how live queries get snapshot isolation from concurrent ingest and
// erosion.
type SegmentReader interface {
	// Visible reports whether the segment may be read at all. The
	// retriever consults it before every lookup — including cache lookups,
	// so an eroded or not-yet-committed segment can never be served from
	// stale cached frames.
	Visible(stream string, sf format.StorageFormat, idx int) bool
	GetEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, error)
	// VisitRaw lends visit the raw frames keep admits, one at a time.
	VisitRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool, visit segment.RawVisitor) (int64, error)
}

// Retriever streams stored segments to consumers.
type Retriever struct {
	Store SegmentReader
	// Cache, when non-nil, memoises full-segment retrievals in their
	// consumption format. Filtered retrievals (a non-nil within predicate)
	// bypass it: the delivered frame set depends on the predicate, which
	// cannot be keyed.
	Cache *Cache
	// DecodePool, when non-nil, fans the independent GOPs of each encoded
	// segment across the pool (codec.DecodeSampledParallel) — intra-segment
	// decode parallelism on top of the engine's inter-segment fan-out.
	// Results are merged in position order, so delivered frames and stats
	// are byte-identical to the sequential path at any worker count.
	DecodePool *sched.Pool
	// Rebuild, when non-nil, reconstructs a replica whose stored bytes
	// are damaged (segment.ErrCorrupt, a failing shard) or lost (visible
	// in the reader's view yet physically absent): it re-derives segment
	// seg of the stream in sf from the nearest richer surviving ancestor
	// on the erosion fallback tree, returning the encoded container (for
	// encoded formats) or the full frame set (for raw formats). The query
	// then answers from the reconstruction — degraded, not failed — and
	// OnDegraded lets the owner enqueue a background repair. The
	// reconstruction is byte-identical to the original when rebuilt from
	// a lossless ancestor and best-effort otherwise, so degraded serves
	// are never cached or materialized.
	Rebuild RebuildFunc
	// OnDegraded, when non-nil, observes every successful degraded serve.
	// Called synchronously; implementations hand off and return.
	OnDegraded func(stream string, seg int, sf format.StorageFormat)
}

// RebuildFunc re-derives one replica: exactly one of enc (encoded
// formats) and frames (raw formats) is non-nil on success.
type RebuildFunc func(stream string, seg int, sf format.StorageFormat) (enc *codec.Encoded, frames []*frame.Frame, err error)

// Segment retrieves segment idx of the stream stored in sf and converts it
// to cf. sf must satisfy cf (R1). The within predicate, if non-nil, further
// restricts the delivered original-timeline frame indices — the mechanism
// cascades use to fetch only activated spans.
//
// Segment is the owned-delivery boundary: the returned frames are the
// caller's to mutate. SegmentTagged is the zero-copy variant for
// consumers that honour the read-only frame contract.
func (r *Retriever) Segment(stream string, sf format.StorageFormat, cf format.ConsumptionFormat, idx int, within func(pts int) bool) ([]*frame.Frame, Stats, error) {
	frames, st, err := r.SegmentTagged(stream, sf, cf, idx, within, "")
	if err == nil && r.Cache != nil && within == nil {
		// The set is (or just became) cache-resident and therefore shared;
		// hand the caller a private copy. Non-cached retrievals are already
		// exclusively owned.
		frames = cloneFrames(frames)
	}
	return frames, st, err
}

// SegmentTagged is Segment with a caller-supplied cache tag. A non-empty
// tag must uniquely identify the frame set the within predicate admits
// (the query engine digests its activation spans); equal tags make
// filtered retrievals cacheable, so repeated queries hit on every cascade
// stage, not just the unfiltered first scan. An empty tag with a non-nil
// predicate bypasses the cache.
//
// SegmentTagged is the zero-copy fast path: delivered frames may be
// shared with the retrieval cache and with concurrent readers, and must
// be treated as read-only (see the frame package's contract). Callers
// that need to mutate frames use Segment, which delivers owned copies.
func (r *Retriever) SegmentTagged(stream string, sf format.StorageFormat, cf format.ConsumptionFormat, idx int, within func(pts int) bool, tag string) ([]*frame.Frame, Stats, error) {
	if !sf.Satisfies(cf) {
		return nil, Stats{}, fmt.Errorf("retrieve: %v cannot supply %v (R1)", sf, cf)
	}
	// Visibility gates the cache too: a segment outside the reader's view
	// (eroded, or not yet committed) must miss even if frames for it are
	// still resident from before the deletion.
	if !r.Store.Visible(stream, sf, idx) {
		return nil, Stats{}, segment.ErrNotFound
	}
	// filling is set while a cache miss awaits its put or abandon. The miss
	// is balanced in one place: every return below abandons it unless the
	// put landed first.
	filling := false
	var key string
	var tok lru.Token
	if r.Cache != nil && (within == nil || tag != "") {
		key = cacheKey(stream, sf, cf, idx) + "#" + tag
		cached, t, ok := r.Cache.get(stream, key)
		if ok {
			// A hit skips the disk read, decode and conversion entirely;
			// only the delivery count is accounted. The cached set itself
			// is delivered, shared across hits — zero copies.
			return cached, Stats{FramesDelivered: int64(len(cached))}, nil
		}
		tok, filling = t, true
		defer func() {
			if filling {
				r.Cache.abandon(stream)
			}
		}()
	}
	conv := converter{cf: cf, out: []*frame.Frame{}}
	var st Stats
	degraded := false
	if sf.Coding.Raw {
		keep := rawKeep(cf.Fidelity.Sampling, within)
		// Conversion runs inside the read, on each record while it is hot.
		bytes, err := r.Store.VisitRaw(stream, sf, idx, keep, conv.add)
		if err != nil {
			// The segment is visible, so any read failure — corrupt
			// record, failing shard, or a replica that vanished without
			// being eroded — is damage. Drop what was converted so far,
			// reconstruct from a fallback ancestor and answer degraded
			// rather than failing the query.
			full, ok := r.rebuildRaw(stream, sf, idx)
			if !ok {
				return nil, st, err
			}
			degraded = true
			var got []*frame.Frame
			for _, f := range full {
				if keep(f.PTS) {
					got = append(got, f)
				}
			}
			conv = converter{cf: cf, out: []*frame.Frame{}}
			conv.addAll(got)
			bytes = 0
		}
		st.BytesRead = bytes
		st.VirtualSeconds += profile.RawReadSeconds(bytes, len(conv.out))
	} else {
		enc, err := r.Store.GetEncoded(stream, sf, idx)
		if err != nil {
			renc, ok := r.rebuildEncoded(stream, sf, idx)
			if !ok {
				return nil, st, err
			}
			degraded = true
			enc = renc
		}
		keep := encodedKeep(enc, cf.Fidelity.Sampling, within)
		keepFn := func(i int) bool { return keep[i] }
		var got []*frame.Frame
		var cst codec.Stats
		if r.DecodePool != nil && r.DecodePool.Workers() > 1 {
			got, cst, err = enc.DecodeSampledParallel(keepFn, r.DecodePool.Batch())
		} else {
			got, cst, err = enc.DecodeSampled(keepFn)
		}
		if err != nil {
			return nil, st, err
		}
		st.BytesRead = cst.BytesFlate
		st.FramesDecoded = cst.Frames
		st.VirtualSeconds += profile.DecodeSeconds(cst, cst.BytesFlate)
		conv.addAll(got)
	}
	out, pixels := conv.out, conv.pixels
	// A quality downgrade quantises in place: every branch above delivers
	// frames this retrieval exclusively owns (kept records, decoder arenas or
	// fresh conversions), never cache- or caller-visible memory.
	if cf.Fidelity.Quality < sf.Fidelity.Quality {
		codec.ApplyQuality(out, cf.Fidelity.Quality)
	}
	// The virtual clock still accounts the conversion scan (the simulated
	// hardware's transform stage is unchanged); only the physical copies
	// are elided on the identity path, keeping stats and artifacts
	// byte-identical to the pre-pooling engine.
	st.VirtualSeconds += profile.TransformSeconds(pixels)
	st.FramesDelivered = int64(len(out))
	// Reconstructed bytes may be best-effort; never let them shadow the
	// repaired replica from the cache.
	if filling && !degraded {
		r.Cache.put(stream, key, out, tok)
		filling = false
	}
	if degraded {
		st.Degraded = 1
		if r.OnDegraded != nil {
			r.OnDegraded(stream, idx, sf)
		}
	}
	return out, st, nil
}

// rebuildEncoded reconstructs an encoded replica through Rebuild,
// reporting ok=false when no rebuild path exists (no hook installed, or
// re-derivation itself failed — e.g. the segment really was eroded).
func (r *Retriever) rebuildEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, bool) {
	if r.Rebuild == nil {
		return nil, false
	}
	enc, _, err := r.Rebuild(stream, idx, sf)
	if err != nil || enc == nil {
		return nil, false
	}
	return enc, true
}

// rebuildRaw is rebuildEncoded for raw (coding-bypass) formats.
func (r *Retriever) rebuildRaw(stream string, sf format.StorageFormat, idx int) ([]*frame.Frame, bool) {
	if r.Rebuild == nil {
		return nil, false
	}
	_, frames, err := r.Rebuild(stream, idx, sf)
	if err != nil || len(frames) == 0 {
		return nil, false
	}
	return frames, true
}

// converter takes one segment's source frames, as they arrive, to the
// consumption resolution and crop; the first frame's dimensions decide how.
// Three shapes, fastest first: when the consumption fidelity matches the
// stored frames (same dimensions, no crop) the source planes are delivered
// as-is — zero copies; when only a downscale is needed, output planes are
// carved from one arena batch; downscale+crop allocates per frame.
type converter struct {
	cf     format.ConsumptionFormat
	out    []*frame.Frame // the delivered set; starts empty, not nil
	pixels int64          // source pixels scanned
	tw, th int
	batch  []*frame.Frame // downscale only: the frames to deliver
}

// add converts the next of n source frames. It is a segment.RawVisitor: true
// means it delivered f itself (the identity shape keeps its records);
// otherwise f may be overwritten once add returns.
func (c *converter) add(n int, f *frame.Frame) bool {
	crop := c.cf.Fidelity.Crop
	if len(c.out) == 0 {
		// Downscale clamps to the source dimensions (upscaling is not
		// supported); apply the same clamp up front so the arena batch
		// gets the dimensions the per-frame path would produce.
		tw, th := vidsim.Dims(c.cf.Fidelity.Res)
		c.tw, c.th = min(tw, f.W), min(th, f.H)
		c.out = make([]*frame.Frame, 0, n)
		if crop == format.Crop100 && (c.tw != f.W || c.th != f.H) {
			c.batch = frame.NewBatch(c.tw, c.th, n)
		}
	}
	c.pixels += int64(f.NumPixels())
	switch {
	case crop != format.Crop100:
		c.out = append(c.out, f.Downscale(c.tw, c.th).CropCenter(crop.Fraction()))
	case c.batch != nil:
		g := c.batch[len(c.out)]
		f.DownscaleInto(g)
		c.out = append(c.out, g)
	default:
		c.out = append(c.out, f)
		return true
	}
	return false
}

// addAll converts a materialised set: a decoded segment, or a rebuilt one.
func (c *converter) addAll(frames []*frame.Frame) {
	for _, f := range frames {
		c.add(len(frames), f)
	}
}

// cloneFrames deep-copies a delivered frame set — the defensive copy the
// owned-delivery boundary (Segment, Range) makes when the set is shared
// with the cache.
func cloneFrames(frames []*frame.Frame) []*frame.Frame {
	out := make([]*frame.Frame, len(frames))
	for i, f := range frames {
		out[i] = f.Clone()
	}
	return out
}

// rawKeep composes the consumption sampling pattern with the cascade filter
// for per-frame raw reads.
func rawKeep(s format.Sampling, within func(int) bool) func(int) bool {
	return func(pts int) bool {
		if !s.Keep(pts) {
			return false
		}
		return within == nil || within(pts)
	}
}

// encodedKeep marks the stored positions to deliver: the nearest stored
// frames realising the consumption sampling, filtered by within. It walks
// the container's PTS table in place (PTSAt) rather than materialising a
// fresh []int per retrieval.
func encodedKeep(enc *codec.Encoded, s format.Sampling, within func(int) bool) []bool {
	keep := make([]bool, enc.N)
	for _, pos := range codec.SelectPositionsFunc(enc.N, enc.PTSAt, s) {
		if within == nil || within(enc.PTSAt(pos)) {
			keep[pos] = true
		}
	}
	return keep
}

// Range retrieves segments [seg0, seg1) and concatenates the frames. Like
// Segment, it is an owned-delivery boundary: when a cache is configured
// the concatenated set is defensively copied, so callers may mutate it
// without corrupting cached segments.
func (r *Retriever) Range(stream string, sf format.StorageFormat, cf format.ConsumptionFormat, seg0, seg1 int, within func(pts int) bool) ([]*frame.Frame, Stats, error) {
	frames, st, err := r.RangeTagged(context.Background(), stream, sf, cf, seg0, seg1, within, "")
	if err == nil && r.Cache != nil && within == nil {
		frames = cloneFrames(frames)
	}
	return frames, st, err
}

// RangeTagged is Range with a cache tag for the within predicate (see
// SegmentTagged). It owns the sequential fold — skip eroded segments,
// accumulate stats in segment order — that parallel retrievers replicate.
// ctx is checked between segments: a canceled range retrieval stops
// before its next segment's decode and returns ctx.Err().
func (r *Retriever) RangeTagged(ctx context.Context, stream string, sf format.StorageFormat, cf format.ConsumptionFormat, seg0, seg1 int, within func(pts int) bool, tag string) ([]*frame.Frame, Stats, error) {
	var all []*frame.Frame
	var total Stats
	for idx := seg0; idx < seg1; idx++ {
		if err := ctx.Err(); err != nil {
			return nil, total, err
		}
		frames, st, err := r.SegmentTagged(stream, sf, cf, idx, within, tag)
		total.Add(st)
		if errors.Is(err, segment.ErrNotFound) {
			continue // eroded segment: caller handles fallback
		}
		if err != nil {
			return nil, total, err
		}
		all = append(all, frames...)
	}
	return all, total, nil
}
