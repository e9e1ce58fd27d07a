package ops

import (
	"encoding/binary"

	"repro/internal/vec"
)

// sigGrad is the horizontal gradient magnitude considered "significant":
// above background texture, noise and quantisation steps, below the
// plate-column alternation amplitude.
const sigGrad = 30

// cellStats holds per-cell first and second moments of the luma plane plus
// horizontal gradient energy, the shared feature grid behind the classifier
// operators. A cellStats is reusable: update recomputes it for a new frame
// on the same buffers, which is how the per-frame Run loops keep the grid
// allocation-free after the first frame (per-frame scratch reused purely
// for allocation economy — explicitly not "state" under the
// FrameIndependent contract).
type cellStats struct {
	cw, ch   int // cells across and down
	px       int // cell pixel size
	mean     []float64
	variance []float64
	hGrad    []float64 // mean |horizontal gradient|
	flips    []float64 // horizontal gradient sign-flip density (plate signature)
	// accumulation and helper scratch, reused across update calls
	acc  []cellAcc
	cols []uint16  // updateMeans' column sums over one band of cell rows
	med  []float64 // median sort buffer
	rows []float64 // rowMedianMean output
}

// cellAcc is one cell's running totals. They are integers, each far below
// 2^53 for any frame, so converting a total to float64 once gives the same
// bits as adding the samples one by one in float64.
type cellAcc struct {
	sum, sum2, grad, flip, cnt int
}

// growZero returns buf resized to n elements, all zero, reusing its
// capacity when possible.
func growZero(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// update recomputes the grid over the w×h luma plane y, reusing g's
// buffers when their capacity allows. Slices previously returned by g's
// helpers are overwritten.
func (g *cellStats) update(y []byte, w, h, px int) {
	px = g.reset(w, h, px)
	cw, n := g.cw, len(g.mean)
	g.variance = growZero(g.variance, n)
	g.hGrad = growZero(g.hGrad, n)
	g.flips = growZero(g.flips, n)
	if cap(g.acc) < n {
		g.acc = make([]cellAcc, n)
	}
	g.acc = g.acc[:n]
	clear(g.acc)
	for yy := 0; yy < h; yy++ {
		row := y[yy*w : (yy+1)*w]
		cells := g.acc[(yy/px)*cw : (yy/px+1)*cw]
		lastSig := 0        // sign of the last significant gradient in this row
		prev := int(row[0]) // the first sample has no gradient
		for cx := range cells {
			span := row[cx*px : min((cx+1)*px, w)]
			var sum, sum2, grad, flip int
			for _, b := range span {
				v := int(b)
				sum += v
				sum2 += v * v
				gv := v - prev
				prev = v
				ag := gv
				if ag < 0 {
					ag = -ag
				}
				grad += ag
				// A flip is a significant gradient whose sign opposes the
				// previous significant one: the pixel-pitch alternation of a
				// plate, which texture and object edges do not produce.
				if ag >= sigGrad {
					sig := 1
					if gv < 0 {
						sig = -1
					}
					if lastSig == -sig {
						flip++
					}
					lastSig = sig
				}
			}
			a := &cells[cx]
			a.sum += sum
			a.sum2 += sum2
			a.grad += grad
			a.flip += flip
			a.cnt += len(span)
		}
	}
	for c, a := range g.acc {
		if a.cnt == 0 {
			continue
		}
		cnt := float64(a.cnt)
		m := float64(a.sum) / cnt
		g.mean[c] = m
		g.variance[c] = float64(a.sum2)/cnt - m*m
		g.hGrad[c] = float64(a.grad) / cnt
		g.flips[c] = float64(a.flip) / cnt
	}
}

// updateMeans is update for a reader of mean alone, which NN is: it adds up
// only each cell's samples, so mean has update's bits, and leaves variance,
// hGrad and flips empty. On an AVX2 host, where a plane is at least 16 wide
// and a band of cell rows at most 257 tall, vec.ColumnSums sums the band
// column by column first and each cell adds its columns; otherwise each cell
// adds its samples row by row.
func (g *cellStats) updateMeans(y []byte, w, h, px int) {
	px = g.reset(w, h, px)
	g.variance, g.hGrad, g.flips = g.variance[:0], g.hGrad[:0], g.flips[:0]
	if cap(g.cols) < w {
		g.cols = make([]uint16, w)
	}
	cols := g.cols[:w]
	for cy := 0; cy < g.ch; cy++ {
		y0, y1 := cy*px, min((cy+1)*px, h)
		band := y[y0*w : y1*w]
		vector := vec.AVX2 && w >= 16 && y1-y0 <= 257
		if vector {
			vec.ColumnSums(cols, band, w, y1-y0)
		}
		for cx := 0; cx < g.cw; cx++ {
			x0, x1 := cx*px, min((cx+1)*px, w)
			sum := 0
			if vector {
				for _, s := range cols[x0:x1] {
					sum += int(s)
				}
			} else {
				for r := 0; r < len(band); r += w {
					for _, v := range band[r+x0 : r+x1] {
						sum += int(v)
					}
				}
			}
			g.mean[cy*g.cw+cx] = float64(sum) / float64((x1-x0)*(y1-y0))
		}
	}
}

// reset sizes the grid for a w×h plane in cells of px samples (at least 2,
// which it returns) and zeroes mean.
func (g *cellStats) reset(w, h, px int) int {
	px = max(px, 2)
	g.cw, g.ch, g.px = (w+px-1)/px, (h+px-1)/px, px
	g.mean = growZero(g.mean, g.cw*g.ch)
	return px
}

// rowMedianMean returns, per cell row, the median of that row's cell means.
// Scenes have a vertical luminance gradient, so a per-row background
// estimate is what keeps the top and bottom of the frame from reading as
// objects. The returned slice is g's scratch, valid until the next call.
func (g *cellStats) rowMedianMean() []float64 {
	if cap(g.rows) < g.ch {
		g.rows = make([]float64, g.ch)
	}
	g.rows = g.rows[:g.ch]
	for cy := 0; cy < g.ch; cy++ {
		g.rows[cy], g.med = medianInto(g.med, g.mean[cy*g.cw:(cy+1)*g.cw])
	}
	return g.rows
}

// medianInto computes the median of src, sorting in buf (grown as needed)
// so hot loops amortise the copy buffer; it returns the median and the
// buffer for reuse. src is not modified.
func medianInto(buf, src []float64) (float64, []float64) {
	if cap(buf) < len(src) {
		buf = make([]float64, len(src))
	}
	vs := buf[:len(src)]
	copy(vs, src)
	// Insertion sort is fine at these sizes (tens of cells).
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	return vs[len(vs)/2], buf
}

// centre returns the normalised centre of cell c.
func (g *cellStats) centre(c int) (x, y float64) {
	cx, cy := c%g.cw, c/g.cw
	return (float64(cx) + 0.5) / float64(g.cw), (float64(cy) + 0.5) / float64(g.ch)
}

// mergePoints clusters normalised points closer than radius (Chebyshev) and
// returns the cluster centroids. Greedy single pass: fine for handfuls of
// detections per frame.
func mergePoints(xs, ys []float64, radius float64) (cx, cy []float64) {
	type cluster struct {
		sx, sy float64
		n      int
	}
	var clusters []cluster
outer:
	for i := range xs {
		for j := range clusters {
			mx := clusters[j].sx / float64(clusters[j].n)
			my := clusters[j].sy / float64(clusters[j].n)
			dx, dy := xs[i]-mx, ys[i]-my
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if dx <= radius && dy <= radius {
				clusters[j].sx += xs[i]
				clusters[j].sy += ys[i]
				clusters[j].n++
				continue outer
			}
		}
		clusters = append(clusters, cluster{xs[i], ys[i], 1})
	}
	for _, c := range clusters {
		cx = append(cx, c.sx/float64(c.n))
		cy = append(cy, c.sy/float64(c.n))
	}
	return
}

// boxBlur3 performs one 3×3 box blur pass over the luma plane in place;
// border samples are left as they are. Used by NN to model convolutional
// feature passes; the work is real. scratch is grown as needed and returned
// for reuse; nothing an earlier pass left in it reaches the output.
//
// On an AVX2 host a plane at least 18 samples wide is one vec.BlurPlane
// call, which keeps each row's horizontal 3-sums in a three-row ring of
// 16-bit sums in scratch and writes sixteen samples at a time. Every other
// plane — all planes on other hosts and under the purego build tag — is
// written row by row by blurRowSWAR, from saved copies of its three source
// rows.
func boxBlur3(y []byte, w, h int, scratch []byte) []byte {
	if w < 3 || h < 3 {
		return scratch
	}
	if vec.AVX2 && w >= 18 {
		if cap(scratch) < 6*w {
			scratch = make([]byte, 6*w)
		}
		vec.BlurPlane(y, w, h, scratch[:6*w])
		return scratch
	}
	// Three source rows, saved because an in-place pass overwrites a row
	// before the row below has read it, and one output row, each padded to
	// whole words; a source row has one word more, read as the last word's
	// right-hand neighbour. Padding only reaches samples at or beyond the
	// right-hand border, which are not stored.
	pw := (w + 7) &^ 7
	rw := pw + 8
	if cap(scratch) < 3*rw+pw {
		scratch = make([]byte, 3*rw+pw)
	}
	scratch = scratch[:3*rw+pw]
	above, cur, below, out := scratch[:rw], scratch[rw:2*rw], scratch[2*rw:3*rw], scratch[3*rw:]
	copy(above, y[:w])
	copy(cur, y[w:2*w])
	for yy := 1; yy < h-1; yy++ {
		copy(below, y[(yy+1)*w:(yy+2)*w])
		blurRowSWAR(y[yy*w:(yy+1)*w], above, cur, below, out)
		above, cur, below = cur, below, above
	}
	return scratch
}

// blurRowSWAR writes the interior of one row from its padded source rows.
// The sum is separable — the three source rows are added into column sums,
// then every sample is three neighbouring column sums over nine — and runs
// eight samples at a time, in the 16-bit lanes of two words: one for the
// even samples, one for the odd. The words go to out, whose length is the
// padded width, and the interior is then copied into dst.
func blurRowSWAR(dst, above, cur, below, out []byte) {
	var even, odd, prevOdd uint64
	nextEven, nextOdd := columnSums(above, cur, below)
	for k := 0; k < len(out); k += 8 {
		prevOdd, even, odd = odd, nextEven, nextOdd
		nextEven, nextOdd = columnSums(above[k+8:], cur[k+8:], below[k+8:])
		// An even sample's neighbours are the odd samples either side of
		// it, the left one a lane down; an odd sample's are the even ones,
		// the right one a lane up.
		evenSums := even + odd + (odd<<16 | prevOdd>>48)
		oddSums := even + odd + (even>>16 | nextEven<<48)
		binary.LittleEndian.PutUint64(out[k:], ninths(evenSums)|ninths(oddSums)<<8)
	}
	copy(dst[1:len(dst)-1], out[1:len(dst)-1])
}

// columnSums adds the first eight samples of three rows column by column:
// the sums of samples 0, 2, 4, 6 in the 16-bit lanes of even, those of
// samples 1, 3, 5, 7 in the lanes of odd.
func columnSums(above, cur, below []byte) (even, odd uint64) {
	const lanes = 0x00ff00ff00ff00ff
	a := binary.LittleEndian.Uint64(above)
	c := binary.LittleEndian.Uint64(cur)
	b := binary.LittleEndian.Uint64(below)
	return a&lanes + c&lanes + b&lanes, a>>8&lanes + c>>8&lanes + b>>8&lanes
}

// ninths divides each 16-bit lane of sums, none above 9·255, by nine and
// leaves lane i's quotient in byte 2i. x·7282>>16 is x/9 for every x below
// 2¹⁵ (7282·9 = 2¹⁶+2); lanes are divided two at a time, 32 bits apart, so
// that neighbouring products cannot meet.
func ninths(sums uint64) uint64 {
	const pair, quot = 0x0000ffff0000ffff, 0x000000ff000000ff
	return ((sums&pair)*7282>>16)&quot | ((sums>>16&pair)*7282>>16)&quot<<16
}
