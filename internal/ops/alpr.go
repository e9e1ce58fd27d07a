package ops

import (
	"repro/internal/frame"
	"repro/internal/vidsim"
)

// License is the license-plate detector of the ALPR pipeline. Plates are
// rendered as alternating dark/bright columns, so their signature is a high
// density of significant horizontal-gradient sign flips concentrated in a
// small cell — background texture and car-body edges do not alternate at
// pixel pitch.
type License struct{}

// Name implements Operator.
func (License) Name() string { return "License" }

// plateFlipDensity is the per-pixel sign-flip density above which a cell is
// plate-like.
const plateFlipDensity = 0.06

// licenseCellDivisor sizes cells to roughly plate height ×4.
const licenseCellDivisor = 10

// Work depths for the CPU-bound ALPR stages, calibrated to the paper's
// consumption speeds (License 10-60×, OCR 11-165× in Table 3). The paper
// notes License is slow, "likely due to its CPU-based implementation".
const (
	licenseWorkDepth = 100
	ocrWorkDepth     = 150
)

// Run implements Operator.
func (License) Run(frames []*frame.Frame) (Output, Stats) {
	var out Output
	var st Stats
	var grid cellStats // reused across frames (allocation economy)
	for _, f := range frames {
		out.PTS = append(out.PTS, f.PTS)
		st.Frames++
		st.Pixels += int64(f.NumPixels())
		st.Work += int64(f.NumPixels()) * licenseWorkDepth
		out.Detections = append(out.Detections, plateCells(f, &grid)...)
	}
	return out, st
}

func plateCells(f *frame.Frame, g *cellStats) []Detection {
	g.update(f.Y, f.W, f.H, max(f.H/licenseCellDivisor, 2))
	var xs, ys []float64
	for c := range g.flips {
		if g.flips[c] >= plateFlipDensity {
			x, y := g.centre(c)
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	cx, cy := mergePoints(xs, ys, 0.15)
	dets := make([]Detection, 0, len(cx))
	for i := range cx {
		dets = append(dets, Detection{PTS: f.PTS, Label: "plate", X: cx[i], Y: cy[i]})
	}
	return dets
}

// OCR recognises the characters of detected plates. Plates encode one digit
// per dark column group as a luma level; OCR locates plate regions as
// License does, segments the dark intervals between opposing significant
// gradients, and decodes each interval's darkest pixel back to a digit. The
// output label is the decoded string, so one misread character is a miss —
// which is why OCR demands both high resolution and high image quality.
type OCR struct{}

// Name implements Operator.
func (OCR) Name() string { return "OCR" }

// Run implements Operator.
func (OCR) Run(frames []*frame.Frame) (Output, Stats) {
	var out Output
	var st Stats
	var grid cellStats // reused across frames (allocation economy)
	for _, f := range frames {
		out.PTS = append(out.PTS, f.PTS)
		st.Frames++
		st.Pixels += int64(f.NumPixels())
		st.Work += int64(f.NumPixels()) * ocrWorkDepth
		for _, det := range plateCells(f, &grid) {
			if s, ok := readPlate(f, det.X, det.Y); ok {
				out.Detections = append(out.Detections, Detection{PTS: f.PTS, Label: s, X: det.X, Y: det.Y})
			}
		}
	}
	return out, st
}

// readPlate scans rows around the normalised position for the plate's
// dark-interval structure and decodes the digits. The decode is
// self-calibrating: intervals are delimited by opposing significant
// gradients, so no assumption about the consumed resolution is needed.
func readPlate(f *frame.Frame, nx, ny float64) (string, bool) {
	cx := int(nx * float64(f.W))
	cy := int(ny * float64(f.H))
	// The search window scales with the frame: plates are ~1/6 of frame
	// width wide and a few pixels tall.
	rw := max(f.W/8, vidsim.PlateDigits+2)
	rh := max(f.H/10, 2)
	var best []byte
	for y := cy - rh; y <= cy+rh; y++ {
		if y < 1 || y >= f.H {
			continue
		}
		digits := decodeRow(f, y, max(cx-rw, 1), min(cx+rw, f.W))
		if len(digits) == vidsim.PlateDigits {
			best = digits
			break
		}
		if len(digits) > len(best) && len(digits) < vidsim.PlateDigits {
			// Keep partial reads only as evidence; they never decode.
			continue
		}
	}
	if len(best) != vidsim.PlateDigits {
		return "", false
	}
	return string(best), true
}

// decodeRow segments [x0,x1) of row y into dark intervals bounded by a
// significant negative gradient (drop into a dark column) and a significant
// positive one (rise into a separator), decoding each interval's minimum
// luma to a digit. Exactly PlateDigits consecutive intervals constitute a
// successful read.
func decodeRow(f *frame.Frame, y, x0, x1 int) []byte {
	row := y * f.W
	var digits []byte
	inDark := false
	minLuma := 255
	lastEdge := -1
	for x := x0; x < x1; x++ {
		g := int(f.Y[row+x]) - int(f.Y[row+x-1])
		switch {
		case g <= -sigGrad:
			inDark = true
			minLuma = int(f.Y[row+x])
			lastEdge = x
		case g >= sigGrad && inDark:
			digits = append(digits, nearestDigit(byte(minLuma)))
			if len(digits) == vidsim.PlateDigits {
				return digits
			}
			inDark = false
		default:
			if inDark {
				if v := int(f.Y[row+x]); v < minLuma {
					minLuma = v
				}
				// Abandon an interval that runs implausibly long: a shadow,
				// not a plate column.
				if lastEdge >= 0 && x-lastEdge > max(f.W/16, 6) {
					inDark = false
					digits = digits[:0]
				}
			}
		}
	}
	return digits
}

// nearestDigit inverts vidsim.DigitLuma.
func nearestDigit(v byte) byte {
	best, bestD := byte('0'), 256
	for d := byte('0'); d <= '9'; d++ {
		lv := int(vidsim.DigitLuma(d))
		diff := int(v) - lv
		if diff < 0 {
			diff = -diff
		}
		if diff < bestD {
			best, bestD = d, diff
		}
	}
	return best
}
