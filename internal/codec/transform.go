package codec

import (
	"repro/internal/format"
	"repro/internal/frame"
)

// ApplyFidelity converts src — frames sorted by PTS, at a resolution at or
// above the target, possibly already temporally sampled — to the target
// fidelity: temporal sampling against the original timeline, box-filter
// downscale to (tw, th), then centre crop. Image quality is not applied
// here; it is an encode-time transform (quantisation).
//
// When src is already sampled, the requested sampling pattern may not align
// exactly with the surviving frames (the kept sets of two sampling rates are
// not always nested). In that case the nearest surviving frame is chosen for
// each desired timeline position, never reusing a frame, which preserves the
// consumer's expected frame density.
func ApplyFidelity(src []*frame.Frame, fid format.Fidelity, tw, th int) []*frame.Frame {
	if len(src) == 0 {
		return nil
	}
	picked := SampleTimeline(src, fid.Sampling)
	out := make([]*frame.Frame, 0, len(picked))
	for _, f := range picked {
		g := f.Downscale(tw, th)
		if fid.Crop != format.Crop100 {
			g = g.CropCenter(fid.Crop.Fraction())
		}
		out = append(out, g)
	}
	return out
}

// SampleTimeline selects from src (sorted by ascending PTS) the frames that
// realise the target sampling over the original timeline spanned by src.
// For each original frame index kept by the target pattern, the surviving
// frame with the nearest PTS is selected; each frame is selected at most
// once. If src is full-rate the selection is exact.
func SampleTimeline(src []*frame.Frame, s format.Sampling) []*frame.Frame {
	pts := make([]int, len(src))
	for i, f := range src {
		pts[i] = f.PTS
	}
	idx := SelectPositions(pts, s)
	out := make([]*frame.Frame, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// SelectPositions returns the positions within pts (sorted ascending
// original-timeline indices of surviving frames) that realise the target
// sampling: for each timeline index kept by s, the nearest surviving
// position, without reuse. Shared by retrieval and by retrieval-speed
// profiling so both touch exactly the same frames.
func SelectPositions(pts []int, s format.Sampling) []int {
	return SelectPositionsFunc(len(pts), func(i int) int { return pts[i] }, s)
}

// SelectPositionsFunc is SelectPositions over an indexed PTS table: n
// entries, at(i) the original-timeline index of position i. It lets the
// retrieval hot path walk a container's stored PTS table in place instead
// of materialising a []int copy per segment read.
func SelectPositionsFunc(n int, at func(i int) int, s format.Sampling) []int {
	if n == 0 {
		return nil
	}
	lo, hi := at(0), at(n-1)
	out := make([]int, 0, (hi-lo+1)*s.Num/s.Den+1)
	j := 0
	for d := lo; d <= hi; d++ {
		if !s.Keep(d) {
			continue
		}
		for j+1 < n && abs(at(j+1)-d) <= abs(at(j)-d) {
			j++
		}
		out = append(out, j)
		j++
		if j >= n {
			break
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ApplyQuality quantises frames in place with the quality knob's
// quantisation step — the exact pixel effect of encoding at that quality and
// decoding again, without the entropy-coding cost. Profiling uses it to
// evaluate quality levels cheaply.
func ApplyQuality(frames []*frame.Frame, q format.Quality) {
	t := newQuantTable(q.QuantStep())
	for _, f := range frames {
		t.apply(f.Y)
		t.apply(f.Cb)
		t.apply(f.Cr)
	}
}
