package ops

import (
	"repro/internal/frame"
	"repro/internal/vec"
)

// Car bodies are solid fills that shift a cell's brightness away from the
// textured background, so the classifiers look for cells whose mean departs
// from the median cell mean (a robust background estimate). These constants
// are shared by S-NN and NN; NN differs by running convolutional feature
// passes first (real work standing in for deep layers), scanning a finer
// grid with a more permissive evidence rule, and classifying detections into
// cars and persons by spatial extent — which is what makes it both costlier
// and more discriminating on the same input.
const (
	carMeanDelta   = 14.0 // |cell mean − median cell mean| for an object cell
	snnCellDivisor = 9    // S-NN cell size: 2/3 of car height, so a car always covers a full cell
	nnCellDivisor  = 12   // NN cell size: half of S-NN's
	nnConvPasses   = 10   // NN convolutional feature passes per frame
	nnCarMinCells  = 4    // clusters at least this many cells wide are cars

	// Work depths (work units per pixel) model each operator's arithmetic
	// intensity on the virtual clock's reference hardware; a real deep
	// network does far more per pixel than the box-blur feature passes we
	// physically run. Calibrated so consumption speeds land in the paper's
	// Table 3 ranges: NN ~4-10× realtime at rich fidelity, S-NN in the
	// hundreds-to-thousands.
	snnWorkDepth = 12
	nnWorkDepth  = 588
)

// SNN is the specialised, very shallow network of NoScope's model search:
// a single-scale coarse scan that spots obvious cars cheaply.
type SNN struct{}

// Name implements Operator.
func (SNN) Name() string { return "S-NN" }

// Run implements Operator. S-NN scans horizontal bands for runs of columns
// whose band-mean departs from the band's median: a car is a wide run, and
// run geometry is expressed as frame fractions, so the detector is robust
// to the consumption resolution (it is the operator the paper assigns 200p
// inputs at every accuracy level).
func (SNN) Run(frames []*frame.Frame) (Output, Stats) {
	var out Output
	var st Stats
	var colMean, medBuf []float64 // per-band scratch reused across frames
	var sums []uint16
	for _, f := range frames {
		out.PTS = append(out.PTS, f.PTS)
		st.Frames++
		st.Pixels += int64(f.NumPixels())
		st.Work += int64(f.NumPixels()) * snnWorkDepth
		var xs, ys []float64
		bandH := max(f.H/snnCellDivisor, 2)
		if cap(colMean) < f.W {
			colMean, sums = make([]float64, f.W), make([]uint16, f.W)
		}
		colMean, sums = colMean[:f.W], sums[:f.W]
		vector := vec.AVX2 && f.W >= 16 && bandH <= 257
		for y0 := 0; y0+bandH <= f.H; y0 += bandH {
			band := f.Y[y0*f.W : (y0+bandH)*f.W]
			if vector {
				vec.ColumnSums(sums, band, f.W, bandH)
				for x, s := range sums {
					colMean[x] = float64(s) / float64(bandH)
				}
			} else {
				for x := range colMean {
					s := 0
					for r := x; r < len(band); r += f.W {
						s += int(band[r])
					}
					colMean[x] = float64(s) / float64(bandH)
				}
			}
			var bg float64
			bg, medBuf = medianInto(medBuf, colMean)
			minRun := max(f.W*8/100, 2) // cars are ~19% of frame width
			maxGap := max(minRun/2, 1)  // plates and roof stripes split runs
			run, gap := 0, 0
			for x := 0; x <= f.W; x++ {
				hit := false
				if x < f.W {
					d := colMean[x] - bg
					if d < 0 {
						d = -d
					}
					hit = d >= carMeanDelta
				}
				switch {
				case hit:
					run += 1 + gap
					gap = 0
				case run > 0 && gap < maxGap:
					gap++
				default:
					if run >= minRun {
						end := float64(x - gap)
						xs = append(xs, (end-float64(run)/2)/float64(f.W))
						ys = append(ys, (float64(y0)+float64(bandH)/2)/float64(f.H))
					}
					run, gap = 0, 0
				}
			}
			if run >= minRun {
				xs = append(xs, (float64(f.W)-float64(run)/2)/float64(f.W))
				ys = append(ys, (float64(y0)+float64(bandH)/2)/float64(f.H))
			}
		}
		// NoScope-style binary output: S-NN answers "does this frame
		// contain a car", not where. The paper's F1 for it is over these
		// per-frame binary labels.
		if len(xs) > 0 {
			out.Detections = append(out.Detections, Detection{PTS: f.PTS, Label: "car", X: 0.5, Y: 0.5})
		}
	}
	return out, st
}

// objCluster is a group of adjacent object-evidence cells.
type objCluster struct {
	x, y  float64
	cells int
}

// objectClusters applies the evidence rule over a stats grid and clusters
// adjacent hits. tighten scales the mean-delta requirement (NN uses <1 to
// catch fainter objects).
func objectClusters(g *cellStats, tighten float64) []objCluster {
	rowBG := g.rowMedianMean()
	var xs, ys []float64
	for c := range g.mean {
		dm := g.mean[c] - rowBG[c/g.cw]
		if dm < 0 {
			dm = -dm
		}
		if dm >= carMeanDelta*tighten {
			x, y := g.centre(c)
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	// Cluster radius just over one cell pitch so touching cells merge.
	rx := 1.2 / float64(g.cw)
	ry := 1.2 / float64(g.ch)
	r := rx
	if ry > r {
		r = ry
	}
	return clusterPoints(xs, ys, r)
}

// clusterPoints greedily clusters points within radius (Chebyshev, against
// the running centroid) and returns centroid plus member count.
func clusterPoints(xs, ys []float64, radius float64) []objCluster {
	type acc struct {
		sx, sy float64
		n      int
	}
	var accs []acc
outer:
	for i := range xs {
		for j := range accs {
			mx := accs[j].sx / float64(accs[j].n)
			my := accs[j].sy / float64(accs[j].n)
			dx, dy := xs[i]-mx, ys[i]-my
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			if dx <= radius && dy <= radius {
				accs[j].sx += xs[i]
				accs[j].sy += ys[i]
				accs[j].n++
				continue outer
			}
		}
		accs = append(accs, acc{xs[i], ys[i], 1})
	}
	out := make([]objCluster, 0, len(accs))
	for _, a := range accs {
		out = append(out, objCluster{x: a.sx / float64(a.n), y: a.sy / float64(a.n), cells: a.n})
	}
	return out
}

// NN is the generic full network (YOLOv2 in the paper): convolutional
// feature passes followed by a fine-grained scan whose clusters are
// classified by extent into cars and persons. Its per-pixel work is roughly
// two orders of magnitude above S-NN's, matching the paper's cost spread
// across a cascade. Because persons span only a cell or two, they vanish at
// low resolutions — NN's accuracy is the one that pays for cheap fidelity.
type NN struct{}

// Name implements Operator.
func (NN) Name() string { return "NN" }

// Run implements Operator.
func (NN) Run(frames []*frame.Frame) (Output, Stats) {
	var out Output
	var st Stats
	// Per-frame scratch reused across frames (allocation economy): every
	// frame overwrites all of it before reading, so nothing is carried over.
	var feat, scratch []byte
	var grid cellStats
	for _, f := range frames {
		out.PTS = append(out.PTS, f.PTS)
		st.Frames++
		n := f.NumPixels()
		st.Pixels += int64(n)
		st.Work += int64(n) * nnWorkDepth
		// Frames are read-only; the passes run in place on a copy of luma.
		feat = append(feat[:0], f.Y...)
		// Feature extraction: repeated 3×3 passes denoise and pool context;
		// the blurred plane is what lets NN see fainter objects than S-NN.
		for p := 0; p < nnConvPasses; p++ {
			scratch = boxBlur3(feat, f.W, f.H, scratch)
		}
		grid.updateMeans(feat, f.W, f.H, max(f.H/nnCellDivisor, 2))
		car, person := false, false
		for _, cl := range objectClusters(&grid, 0.7) {
			if cl.cells >= nnCarMinCells {
				car = true
			} else {
				person = true
			}
		}
		// Binary per-class frame labels, as NoScope's evaluation defines
		// them. Low resolutions lose the person class first (persons span
		// too few cells), which is what degrades NN's accuracy on cheap
		// fidelity.
		if car {
			out.Detections = append(out.Detections, Detection{PTS: f.PTS, Label: "car", X: 0.5, Y: 0.5})
		}
		if person {
			out.Detections = append(out.Detections, Detection{PTS: f.PTS, Label: "person", X: 0.5, Y: 0.5})
		}
	}
	return out, st
}
