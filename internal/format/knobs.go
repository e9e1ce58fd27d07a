// Package format defines the video format knobs that VStore controls along
// the video data path: four fidelity knobs (image quality, crop factor,
// resolution, frame sampling) and three coding knobs (speed step, keyframe
// interval, coding bypass). It provides the richer-than partial order over
// fidelity options and enumeration of the fidelity space F and coding space C
// (Table 1 of the paper).
package format

import (
	"fmt"
	"strconv"
	"strings"
)

// Quality is the image quality knob. It models the encoder's rate factor
// (CRF in x264): lower quality quantises pixels more aggressively, shrinking
// the encoded stream and distorting the decoded pixels, without changing the
// decoded pixel count. Ordering: Worst < Bad < Good < Best.
type Quality int

// Quality levels, poorest first so that the int value is the richness rank.
const (
	QWorst Quality = iota
	QBad
	QGood
	QBest
)

// Qualities lists all quality levels from poorest to richest.
var Qualities = []Quality{QWorst, QBad, QGood, QBest}

// QuantStep returns the pixel quantisation step used by the codec for this
// quality level. Step 1 is lossless (CRF 0 in the paper's mapping).
func (q Quality) QuantStep() int {
	switch q {
	case QWorst:
		return 48
	case QBad:
		return 16
	case QGood:
		return 4
	default:
		return 1
	}
}

func (q Quality) String() string {
	switch q {
	case QWorst:
		return "worst"
	case QBad:
		return "bad"
	case QGood:
		return "good"
	case QBest:
		return "best"
	}
	return fmt.Sprintf("quality(%d)", int(q))
}

// Crop is the crop factor knob, the percentage of each frame dimension that
// is retained around the frame centre. 100 keeps the whole frame.
type Crop int

// Crop factors considered in this work.
const (
	Crop50  Crop = 50
	Crop75  Crop = 75
	Crop100 Crop = 100
)

// Crops lists all crop factors from poorest to richest.
var Crops = []Crop{Crop50, Crop75, Crop100}

// Fraction returns the retained fraction of each frame dimension in [0,1].
func (c Crop) Fraction() float64 { return float64(c) / 100 }

func (c Crop) String() string { return fmt.Sprintf("%d%%", int(c)) }

// Resolution is the vertical resolution (lines) of the frame; the width
// follows the source aspect ratio. The ladder has ten rungs (Table 1).
type Resolution int

// The resolution ladder, poorest first.
var Resolutions = []Resolution{60, 100, 144, 180, 200, 360, 400, 540, 600, 720}

func (r Resolution) String() string { return fmt.Sprintf("%dp", int(r)) }

// Sampling is the frame sampling knob: the fraction of frames supplied to the
// consumer. Expressed as a rational to keep exact arithmetic on frame
// indices (1/30 means one frame out of every thirty).
type Sampling struct {
	Num, Den int
}

// Frame sampling rates considered in this work, poorest first. Table 1 lists
// 1/5 where Figure 8 and Table 3 use 1/6; we follow the figures.
var Samplings = []Sampling{{1, 30}, {1, 6}, {1, 2}, {2, 3}, {1, 1}}

// Fraction returns the sampled fraction of frames in (0,1].
func (s Sampling) Fraction() float64 { return float64(s.Num) / float64(s.Den) }

// Interval returns the mean distance between consumed frames, Den/Num.
func (s Sampling) Interval() float64 { return float64(s.Den) / float64(s.Num) }

// Keep reports whether frame i (0-based) of the stream is retained by this
// sampling rate. Frames are retained as evenly as possible: frame i is kept
// when floor((i+1)*Num/Den) > floor(i*Num/Den).
func (s Sampling) Keep(i int) bool {
	return (i+1)*s.Num/s.Den > i*s.Num/s.Den
}

func (s Sampling) String() string {
	if s.Num == s.Den {
		return "1"
	}
	return fmt.Sprintf("%d/%d", s.Num, s.Den)
}

// SpeedStep is the coding speed step knob (the x264 preset in the paper's
// mapping): faster steps trade compression ratio for coding speed.
// Ordering by coding speed: Slowest < Slow < Medium < Fast < Fastest.
type SpeedStep int

// Speed steps, slowest (best compression) first.
const (
	SpeedSlowest SpeedStep = iota
	SpeedSlow
	SpeedMedium
	SpeedFast
	SpeedFastest
)

// SpeedSteps lists all coding speed steps, slowest first.
var SpeedSteps = []SpeedStep{SpeedSlowest, SpeedSlow, SpeedMedium, SpeedFast, SpeedFastest}

// FlateLevel maps the speed step onto a compress/flate effort level, the
// reproduction's stand-in for the x264 preset.
func (s SpeedStep) FlateLevel() int {
	switch s {
	case SpeedSlowest:
		return 9
	case SpeedSlow:
		return 7
	case SpeedMedium:
		return 5
	case SpeedFast:
		return 2
	default:
		return 1
	}
}

func (s SpeedStep) String() string {
	switch s {
	case SpeedSlowest:
		return "slowest"
	case SpeedSlow:
		return "slow"
	case SpeedMedium:
		return "med"
	case SpeedFast:
		return "fast"
	case SpeedFastest:
		return "fastest"
	}
	return fmt.Sprintf("speed(%d)", int(s))
}

// KeyframeIntervals lists the keyframe interval knob values (frames per
// group of pictures), largest first to match Table 1.
var KeyframeIntervals = []int{5, 10, 50, 100, 250}

// Fidelity is a combination of fidelity knob values — a fidelity option
// (written f-vector in the paper). All possible Fidelity values constitute
// the fidelity space F.
type Fidelity struct {
	Quality  Quality
	Crop     Crop
	Res      Resolution
	Sampling Sampling
}

// String renders the fidelity in the paper's Table 3 style:
// quality-resolution-sampling-crop, e.g. "best-200p-1/2-50%".
func (f Fidelity) String() string {
	return fmt.Sprintf("%s-%s-%s-%s", f.Quality, f.Res, f.Sampling, f.Crop)
}

// RicherEq reports whether f is richer than or equal to g on every knob:
// the partial order that governs fidelity satisfiability (R1). f can be
// degraded into g only if f.RicherEq(g).
func (f Fidelity) RicherEq(g Fidelity) bool {
	return f.Quality >= g.Quality &&
		f.Crop >= g.Crop &&
		f.Res >= g.Res &&
		f.Sampling.Fraction() >= g.Sampling.Fraction()
}

// Max returns the knob-wise maximum of f and g: the least fidelity that is
// richer than or equal to both. Used when coalescing storage formats.
func (f Fidelity) Max(g Fidelity) Fidelity {
	out := f
	if g.Quality > out.Quality {
		out.Quality = g.Quality
	}
	if g.Crop > out.Crop {
		out.Crop = g.Crop
	}
	if g.Res > out.Res {
		out.Res = g.Res
	}
	if g.Sampling.Fraction() > out.Sampling.Fraction() {
		out.Sampling = g.Sampling
	}
	return out
}

// RelPixels returns the relative data quantity of the fidelity per unit of
// video time, normalised so the richest fidelity is 1.0. It multiplies the
// relative pixel area (resolution² against 720p, crop area) by the sampled
// frame fraction. Image quality does not contribute: it changes bytes, not
// pixels.
func (f Fidelity) RelPixels() float64 {
	r := float64(f.Res) / float64(Resolutions[len(Resolutions)-1])
	c := f.Crop.Fraction()
	return r * r * c * c * f.Sampling.Fraction()
}

// MaxFidelity returns the richest fidelity option in F.
func MaxFidelity() Fidelity {
	return Fidelity{
		Quality:  QBest,
		Crop:     Crop100,
		Res:      Resolutions[len(Resolutions)-1],
		Sampling: Sampling{1, 1},
	}
}

// Coding is a combination of coding knob values — a coding option (c-vector).
// If Raw is true the stream bypasses coding entirely and the remaining knobs
// are meaningless; raw frames are stored on disk as-is.
type Coding struct {
	Raw       bool
	Speed     SpeedStep
	KeyframeI int
}

// RawCoding is the coding-bypass option.
var RawCoding = Coding{Raw: true}

func (c Coding) String() string { return string(c.appendTo(nil)) }

// appendTo appends "RAW", or <keyframe interval>-<speed> e.g. "250-slowest".
func (c Coding) appendTo(b []byte) []byte {
	if c.Raw {
		return append(b, "RAW"...)
	}
	b = append(strconv.AppendInt(b, int64(c.KeyframeI), 10), '-')
	return append(b, c.Speed.String()...)
}

// FidelitySpace enumerates all |F| fidelity options. The slice is freshly
// allocated; callers may reorder it.
func FidelitySpace() []Fidelity {
	out := make([]Fidelity, 0, len(Qualities)*len(Crops)*len(Resolutions)*len(Samplings))
	for _, q := range Qualities {
		for _, c := range Crops {
			for _, r := range Resolutions {
				for _, s := range Samplings {
					out = append(out, Fidelity{Quality: q, Crop: c, Res: r, Sampling: s})
				}
			}
		}
	}
	return out
}

// ParseFidelity parses the Table 3 rendering produced by Fidelity.String,
// e.g. "best-200p-1/2-50%". It is the inverse of String for all options in F.
func ParseFidelity(s string) (Fidelity, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return Fidelity{}, fmt.Errorf("format: fidelity %q: want quality-res-sampling-crop", s)
	}
	var f Fidelity
	switch parts[0] {
	case "worst":
		f.Quality = QWorst
	case "bad":
		f.Quality = QBad
	case "good":
		f.Quality = QGood
	case "best":
		f.Quality = QBest
	default:
		return Fidelity{}, fmt.Errorf("format: unknown quality %q", parts[0])
	}
	var res int
	if _, err := fmt.Sscanf(parts[1], "%dp", &res); err != nil {
		return Fidelity{}, fmt.Errorf("format: bad resolution %q", parts[1])
	}
	f.Res = Resolution(res)
	if parts[2] == "1" {
		f.Sampling = Sampling{1, 1}
	} else if _, err := fmt.Sscanf(parts[2], "%d/%d", &f.Sampling.Num, &f.Sampling.Den); err != nil {
		return Fidelity{}, fmt.Errorf("format: bad sampling %q", parts[2])
	}
	var crop int
	if _, err := fmt.Sscanf(parts[3], "%d%%", &crop); err != nil {
		return Fidelity{}, fmt.Errorf("format: bad crop %q", parts[3])
	}
	f.Crop = Crop(crop)
	return f, nil
}
