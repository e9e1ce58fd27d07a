// Package ops implements VStore's operator library (Table 2): nine
// algorithmic video consumers spanning three orders of magnitude in cost.
// Diff, Motion, Color, Contour and Opflow are genuine pixel algorithms;
// S-NN, NN, License and OCR are feature-pipeline classifiers standing in for
// the neural networks and OpenALPR stages of the paper (the documented
// substitution for Go's weak NN ecosystem). Every operator does real,
// fidelity-proportional pixel work, so consumption cost scales with the
// data quantity knobs and is independent of image quality (observation O2).
//
// Accuracy follows the paper's definition (§6.1): the F1 score of the
// operator's output at a test fidelity against its own output when consuming
// the ingestion-format (full fidelity) video.
package ops

import (
	"fmt"

	"repro/internal/format"
	"repro/internal/frame"
)

// Detection is one semantic finding in one frame. X and Y are the normalised
// centre position in [0,1], in the coordinates of the frame the operator
// consumed; RunAtFidelity converts them to full-frame coordinates.
type Detection struct {
	PTS   int
	Label string
	X, Y  float64
}

// Output is an operator's result over a clip: the consumed frame timeline
// and the detections on it.
type Output struct {
	PTS        []int // consumed original-timeline frame indices, ascending
	Detections []Detection
}

// Stats accounts the deterministic consumption work of a run.
type Stats struct {
	Pixels int64 // pixels examined
	Work   int64 // abstract work units: pixels × operator depth
	Frames int64 // frames consumed (per-frame dispatch overhead accounting)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Pixels += other.Pixels
	s.Work += other.Work
	s.Frames += other.Frames
}

// Operator is an algorithmic video consumer. Run consumes a clip of frames
// (already converted to the consumption fidelity) and reports detections
// plus the work performed. Implementations are stateless values; all
// per-run state lives inside Run.
type Operator interface {
	Name() string
	Run(frames []*frame.Frame) (Output, Stats)
}

// All returns the operator library in Table 2 order: Diff, S-NN, NN, Motion,
// License, OCR, Opflow, Color, Contour.
func All() []Operator {
	return []Operator{
		Diff{}, SNN{}, NN{}, Motion{}, License{}, OCR{}, Opflow{}, Color{}, Contour{},
	}
}

// ByName returns the named operator.
func ByName(name string) (Operator, error) {
	for _, op := range All() {
		if op.Name() == name {
			return op, nil
		}
	}
	return nil, fmt.Errorf("ops: unknown operator %q", name)
}

// RunAtFidelity runs op on frames produced at fidelity fid and converts
// detection positions from cropped-frame coordinates back to full-frame
// coordinates, so outputs at different fidelities are comparable.
func RunAtFidelity(op Operator, frames []*frame.Frame, fid format.Fidelity) (Output, Stats) {
	out, st := op.Run(frames)
	cf := fid.Crop.Fraction()
	if cf < 1 {
		for i := range out.Detections {
			out.Detections[i].X = 0.5 + (out.Detections[i].X-0.5)*cf
			out.Detections[i].Y = 0.5 + (out.Detections[i].Y-0.5)*cf
		}
	}
	return out, st
}

// posTolerance is the normalised distance within which two detections of the
// same label in the same frame are considered the same finding. It is wide
// enough to absorb the drift of step-expanded answers at 1/30 sampling
// (objects move about 0.19 of the frame in 30 frames).
const posTolerance = 0.28

// F1 scores test against ref, following the paper's accuracy definition.
// ref is the output at the ingestion format (full frame rate): its PTS set
// is the evaluation timeline. test may be sparsely sampled; its detections
// extend forward in time until its next consumed frame (the query's answer
// for unconsumed frames is the latest consumed one).
func F1(ref, test Output) float64 {
	if len(ref.PTS) == 0 {
		return 1
	}
	refByPTS := groupByPTS(ref.Detections)
	testByPTS := groupByPTS(test.Detections)

	var tp, fp, fn int
	ti := 0
	for _, pts := range ref.PTS {
		// Step-expansion: the test's answer for pts is its latest consumed
		// frame at or before pts (or its first frame if none).
		for ti+1 < len(test.PTS) && test.PTS[ti+1] <= pts {
			ti++
		}
		var testDets []Detection
		if len(test.PTS) > 0 {
			testDets = testByPTS[test.PTS[ti]]
		}
		t, p, n := matchFrame(refByPTS[pts], testDets)
		tp += t
		fp += p
		fn += n
	}
	if tp == 0 {
		if fp == 0 && fn == 0 {
			return 1 // both outputs empty everywhere: perfect agreement
		}
		return 0
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	return 2 * precision * recall / (precision + recall)
}

func groupByPTS(dets []Detection) map[int][]Detection {
	m := make(map[int][]Detection)
	for _, d := range dets {
		m[d.PTS] = append(m[d.PTS], d)
	}
	return m
}

// matchFrame greedily matches same-label detections within the position
// tolerance and returns (tp, fp, fn) for one frame.
func matchFrame(ref, test []Detection) (tp, fp, fn int) {
	used := make([]bool, len(ref))
	for _, td := range test {
		matched := false
		best, bestD := -1, posTolerance
		for i, rd := range ref {
			if used[i] || rd.Label != td.Label {
				continue
			}
			d := chebyshev(rd, td)
			if d <= bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			used[best] = true
			matched = true
			tp++
		}
		if !matched {
			fp++
		}
	}
	for i := range ref {
		if !used[i] {
			fn++
		}
	}
	return
}

func chebyshev(a, b Detection) float64 {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}
