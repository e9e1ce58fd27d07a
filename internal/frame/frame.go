// Package frame provides the raw video frame representation used throughout
// the store: planar YUV 4:2:0 buffers plus the geometric transforms the data
// path needs (box-filter downscaling, centre cropping) and comparison
// helpers (absolute difference, PSNR).
//
// # Read-only frame contract
//
// Frames flowing through the read path — decoder output, retrieval cache
// entries, the slices handed to operators — are SHARED, not copied: the
// identity transforms (Downscale to the source dimensions, CropCenter(1))
// return their receiver, cached segments hand the same frames to every
// hit, arena batches (NewBatch) share one backing allocation, and raw
// frames alias the stored record they were read into (Over). Every
// consumer of delivered frames must treat them as immutable; an operator
// or caller that needs to scribble on pixels must Clone first. Producers
// (the scene renderer, the decoder) may freely mutate frames they have
// not yet delivered. The aliasing-safety tests in the retrieve package
// enforce the contract end to end; the one boundary that hands out owned,
// mutation-safe copies is the public Retriever.Segment/Range surface.
package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/vec"
)

// Frame is a planar YUV 4:2:0 picture. Y has W*H samples; Cb and Cr each
// have (W/2)*(H/2) samples (W and H are kept even). PTS is the frame's index
// in its stream at the stream's native rate.
type Frame struct {
	W, H      int
	Y, Cb, Cr []byte
	PTS       int
}

// evenDims clamps luma dimensions to at least 2 and rounds them up to even,
// so the chroma planes subsample cleanly.
func evenDims(w, h int) (int, int) {
	w, h = max(w, 2), max(h, 2)
	return w + w&1, h + h&1
}

// New allocates a zeroed frame of the given luma dimensions, rounded by
// evenDims.
func New(w, h int) *Frame {
	w, h = evenDims(w, h)
	return &Frame{
		W:  w,
		H:  h,
		Y:  make([]byte, w*h),
		Cb: make([]byte, (w/2)*(h/2)),
		Cr: make([]byte, (w/2)*(h/2)),
	}
}

// Over returns a frame of the given luma dimensions (rounded as New rounds
// them) whose planes alias the front of buf — Y, then Cb, then Cr, each
// capped at its own length so an append to one cannot reach the next — and
// the number of bytes such a frame spans. It is the one carve rule, behind
// arena batches and the raw read path, which delivers a stored record's
// planes where the read put them. A buf shorter than the span leaves the
// planes nil; bytes past it are not touched.
func Over(w, h int, buf []byte) (Frame, int) {
	w, h = evenDims(w, h)
	ylen := w * h
	clen := (w / 2) * (h / 2)
	f := Frame{W: w, H: h}
	if len(buf) >= ylen+2*clen {
		f.Y = buf[:ylen:ylen]
		f.Cb = buf[ylen : ylen+clen : ylen+clen]
		f.Cr = buf[ylen+clen : ylen+2*clen : ylen+2*clen]
	}
	return f, ylen + 2*clen
}

// NewBatch returns n zeroed frames of identical luma dimensions whose
// planes are carved from a single contiguous allocation — the decoder's
// output allocator (one arena per GOP instead of four allocations per
// frame). The frames are ordinary GC-managed frames; they merely share a
// backing array, which the read-only contract above makes safe.
func NewBatch(w, h, n int) []*Frame {
	if n <= 0 {
		return nil
	}
	_, flen := Over(w, h, nil)
	arena := make([]byte, n*flen)
	frames := make([]Frame, n)
	out := make([]*Frame, n)
	for i := range frames {
		frames[i], _ = Over(w, h, arena[i*flen:])
		out[i] = &frames[i]
	}
	return out
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H, PTS: f.PTS}
	g.Y = append([]byte(nil), f.Y...)
	g.Cb = append([]byte(nil), f.Cb...)
	g.Cr = append([]byte(nil), f.Cr...)
	return g
}

// NumPixels returns the luma sample count.
func (f *Frame) NumPixels() int { return f.W * f.H }

// Bytes returns the total sample count across all three planes, which is the
// frame's raw storage footprint in bytes.
func (f *Frame) Bytes() int { return len(f.Y) + len(f.Cb) + len(f.Cr) }

// Set writes the luma sample at (x, y).
func (f *Frame) Set(x, y int, v byte) { f.Y[y*f.W+x] = v }

func (f *Frame) String() string {
	return fmt.Sprintf("frame %dx%d pts=%d", f.W, f.H, f.PTS)
}

// Downscale returns a frame scaled to the target luma dimensions with a
// box filter. Upscaling is not supported: target dimensions are clamped to
// the source's. Scaling to the same size is the identity and returns the
// receiver itself — zero copies, under the read-only contract; callers
// that need an independent frame must Clone.
func (f *Frame) Downscale(tw, th int) *Frame {
	if tw > f.W {
		tw = f.W
	}
	if th > f.H {
		th = f.H
	}
	if tw == f.W && th == f.H {
		return f
	}
	g := New(tw, th)
	f.DownscaleInto(g)
	return g
}

// DownscaleInto box-filters f into g, whose dimensions select the target
// scale (they must not exceed f's). It is the allocation-free core of
// Downscale: the retrieval fast path scales into arena-carved batches
// instead of allocating one frame at a time. g must not alias f.
func (f *Frame) DownscaleInto(g *Frame) {
	g.PTS = f.PTS
	boxScale(g.Y, g.W, g.H, f.Y, f.W, f.H)
	boxScale(g.Cb, g.W/2, g.H/2, f.Cb, f.W/2, f.H/2)
	boxScale(g.Cr, g.W/2, g.H/2, f.Cr, f.W/2, f.H/2)
}

// lane255s is how many samples of 255 a 16-bit lane holds (257): the rows
// boxScale adds between emptying its lanes, and the largest area reciprocal takes.
const lane255s = 0xffff / 255

// boxScale fills dst (dw×dh) by averaging the source box mapped to each
// destination sample: columns [dx·sw/dw, (dx+1)·sw/dw) of rows
// [dy·sh/dh, (dy+1)·sh/dh), each range widened to one when empty. A box is
// one of two widths, the narrowest or one column wider, and a box sum is
// divided by multiplying with the reciprocal of its area, so a row works out
// two. On an AVX2 host, a source at least 16 wide scaled to at least 8 whose
// largest box fits a 16-bit lane (lane255s samples) takes boxScaleVec.
// Otherwise a destination row adds its source rows eight columns at a time,
// in the 16-bit lanes of two words (even samples, odd samples), and empties
// the lanes into running totals over the columns, after lane255s rows at the
// latest, so a box of any height takes the same path; a box sum is then the
// difference of two totals.
func boxScale(dst []byte, dw, dh int, src []byte, sw, sh int) {
	if dw == 0 || dh == 0 {
		return
	}
	narrowest := max(sw/dw, 1) // a box is this wide or one column wider
	// The largest box is ⌈sw/dw⌉ columns by ⌈sh/dh⌉ rows.
	if vec.AVX2 && sw >= 16 && dw >= 8 && (sw+dw-1)/dw*((sh+dh-1)/dh) <= lane255s {
		boxScaleVec(dst, dw, dh, src, sw, sh, narrowest)
		return
	}
	var narrow [512]uint64 // planes this narrow scale without allocating
	tab := narrow[:]
	if dw+1+sw+1 > len(tab) {
		tab = make([]uint64, dw+1+sw+1)
	}
	edges, totals := tab[:dw+1], tab[dw+1:][:sw+1] // box dx spans [edges[dx], max(edges[dx+1], edges[dx]+1))
	for dx := range edges {
		edges[dx] = uint64(dx * sw / dw)
	}
	for dy := 0; dy < dh; dy++ {
		sy0 := dy * sh / dh
		sy1 := max((dy+1)*sh/dh, sy0+1)
		clear(totals) // totals[x] becomes the sum of columns [0, x) over the box's rows
		for y := sy0; y < sy1; y += lane255s {
			rows := src[y*sw : min(y+lane255s, sy1)*sw]
			var run uint64
			for k := 0; k+8 <= sw; k += 8 {
				const lanes = 0x00ff00ff00ff00ff
				var even, odd uint64
				for off := k; off < len(rows); off += sw {
					w := binary.LittleEndian.Uint64(rows[off:])
					even += w & lanes
					odd += w >> 8 & lanes
				}
				t := totals[k+1:][:8]
				run += even & 0xffff
				t[0] += run
				run += odd & 0xffff
				t[1] += run
				run += even >> 16 & 0xffff
				t[2] += run
				run += odd >> 16 & 0xffff
				t[3] += run
				run += even >> 32 & 0xffff
				t[4] += run
				run += odd >> 32 & 0xffff
				t[5] += run
				run += even >> 48
				t[6] += run
				run += odd >> 48
				t[7] += run
			}
			for x := sw &^ 7; x < sw; x++ { // the columns short of a word
				for off := x; off < len(rows); off += sw {
					run += uint64(rows[off])
				}
				totals[x+1] += run
			}
		}
		recips := [2]uint64{reciprocal(narrowest * (sy1 - sy0)), reciprocal((narrowest + 1) * (sy1 - sy0))}
		out := dst[dy*dw:][:dw]
		for dx := range out {
			sx0 := edges[dx]
			sx1 := max(edges[dx+1], sx0+1)
			sum := totals[sx1] - totals[sx0]
			if r := recips[int(sx1-sx0)-narrowest]; r != 0 {
				out[dx] = byte(sum * r >> 32)
			} else {
				out[dx] = byte(sum / ((sx1 - sx0) * uint64(sy1-sy0)))
			}
		}
	}
}

// boxScaleVec is boxScale's vector path. For each destination row,
// vec.ColumnSums adds the box's source rows in 16-bit lanes,
// vec.WindowSums adds every run of narrowest neighbouring column sums, and
// vec.BoxMeans takes a box sum as the run at its first column, plus the
// column after the run for a wide box, and divides it. Every sum fits a
// lane, and every area has a reciprocal, because no box holds more than
// lane255s samples.
func boxScaleVec(dst []byte, dw, dh int, src []byte, sw, sh, narrowest int) {
	var narrow [512]uint16 // planes this narrow scale without allocating
	tab := narrow[:]
	if 2*sw+narrowest+1 > len(tab) {
		tab = make([]uint16, 2*sw+narrowest+1)
	}
	// runs[x] is the run starting at column x. Past the last column, cols is
	// padded with zeros, so every run and every read one lane past a box's
	// first column stays inside tab.
	runs, cols := tab[:sw], tab[sw:][:sw+narrowest+1]
	var boxes [320]int32
	tb := boxes[:]
	if 2*dw > len(tb) {
		tb = make([]int32, 2*dw)
	}
	starts, wides := tb[:dw], tb[dw:][:dw] // a box's first column; -1 for a wide box
	for dx := range starts {
		sx0 := dx * sw / dw
		starts[dx] = int32(sx0)
		wides[dx] = int32(sx0 + narrowest - max((dx+1)*sw/dw, sx0+1))
	}
	for dy := 0; dy < dh; dy++ {
		sy0 := dy * sh / dh
		sy1 := max((dy+1)*sh/dh, sy0+1)
		vec.ColumnSums(cols[:sw], src[sy0*sw:], sw, sy1-sy0)
		vec.WindowSums(runs, cols, narrowest)
		// BoxMeans shifts by 31, not 32, so that a one-sample box's
		// multiplier fits 32 bits: (r+1)/2 is ⌊2³¹/area⌋+1, exact for every
		// sum a box can hold (TestHalfReciprocalExact).
		narrowR, wideR := reciprocal(narrowest*(sy1-sy0)), reciprocal((narrowest+1)*(sy1-sy0))
		vec.BoxMeans(dst[dy*dw:][:dw], runs, cols[narrowest:], starts, wides, uint32((narrowR+1)>>1), uint32((wideR+1)>>1))
	}
}

// reciprocal returns the r for which sum·r>>32 is sum/area for every sum a
// box of that area can hold (at most 255·area; TestReciprocalExact tries
// every pair), or zero for an area above lane255s: the caller then divides.
func reciprocal(area int) uint64 {
	if area > lane255s {
		return 0
	}
	return 1<<32/uint64(area) + 1
}

// CropCenter returns a frame retaining the central fraction frac of each
// dimension (frac in (0,1]). The retained dimensions are kept even.
// CropCenter(1) is the identity and returns the receiver itself — zero
// copies, under the read-only contract; callers that need an independent
// frame must Clone.
func (f *Frame) CropCenter(frac float64) *Frame {
	if frac >= 1 {
		return f
	}
	if frac <= 0 {
		frac = 0.01
	}
	cw := int(float64(f.W)*frac) &^ 1
	ch := int(float64(f.H)*frac) &^ 1
	if cw < 2 {
		cw = 2
	}
	if ch < 2 {
		ch = 2
	}
	x0 := (f.W - cw) / 2 &^ 1
	y0 := (f.H - ch) / 2 &^ 1
	g := New(cw, ch)
	g.PTS = f.PTS
	for y := 0; y < ch; y++ {
		copy(g.Y[y*cw:(y+1)*cw], f.Y[(y0+y)*f.W+x0:(y0+y)*f.W+x0+cw])
	}
	hw, hh := cw/2, ch/2
	sx0, sy0 := x0/2, y0/2
	shw := f.W / 2
	for y := 0; y < hh; y++ {
		copy(g.Cb[y*hw:(y+1)*hw], f.Cb[(sy0+y)*shw+sx0:(sy0+y)*shw+sx0+hw])
		copy(g.Cr[y*hw:(y+1)*hw], f.Cr[(sy0+y)*shw+sx0:(sy0+y)*shw+sx0+hw])
	}
	return g
}

// Equal reports whether two frames have identical dimensions and samples.
func Equal(a, b *Frame) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Y, b.Y) && bytes.Equal(a.Cb, b.Cb) && bytes.Equal(a.Cr, b.Cr)
}

// FillRect paints a solid luma+chroma rectangle clipped to the frame.
func (f *Frame) FillRect(x0, y0, w, h int, y, cb, cr byte) {
	x1, y1 := x0+w, y0+h
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > f.W {
		x1 = f.W
	}
	if y1 > f.H {
		y1 = f.H
	}
	for yy := y0; yy < y1; yy++ {
		row := yy * f.W
		for xx := x0; xx < x1; xx++ {
			f.Y[row+xx] = y
		}
	}
	hw := f.W / 2
	for yy := y0 / 2; yy < y1/2; yy++ {
		row := yy * hw
		for xx := x0 / 2; xx < x1/2; xx++ {
			f.Cb[row+xx] = cb
			f.Cr[row+xx] = cr
		}
	}
}
