// Package profile measures operators and codecs over sample clips, producing
// the accuracy/cost data that drives configuration (§4.2–4.3). Profiling is
// the dominant configuration overhead, so the profiler memoises every
// result and counts runs — the quantities Figure 14 and §6.4 report.
//
// Accuracy follows §6.1: the ground truth for an operator is its own output
// when consuming the ingestion-format (full fidelity) video.
package profile

import (
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ops"
	"repro/internal/vidsim"
)

// DefaultClipFrames is the profiling clip length: a 10-second clip, the
// typical length used in prior work (§6.1).
const DefaultClipFrames = 10 * vidsim.FPS

// CFProfile is the profiled behaviour of one (operator, fidelity) pair.
type CFProfile struct {
	Fidelity format.Fidelity
	Accuracy float64 // F1 against the operator's full-fidelity output
	Speed    float64 // consumption speed, × video realtime
}

// SFProfile is the profiled behaviour of one storage format.
type SFProfile struct {
	SF          format.StorageFormat
	BytesPerSec float64 // storage cost: stored bytes per second of video
	IngestSec   float64 // ingest CPU: seconds of CPU per second of video
}

// Profiler profiles operators and storage formats on one scene's sample
// clip. It is safe for concurrent use.
type Profiler struct {
	Source     *vidsim.Source
	Mode       Mode
	ClipStart  int
	ClipFrames int

	mu       sync.Mutex
	clip     []*frame.Frame
	refs     map[string]ops.Output
	cfMemo   map[cfKey]CFProfile
	sfMemo   map[format.StorageFormat]SFProfile
	retMemo  map[retKey]float64
	sfEncMem map[format.StorageFormat]*codec.Encoded

	// ConsumptionRuns counts operator profiling runs (memo misses).
	ConsumptionRuns int
	// StorageRuns counts storage-format profiling runs (memo misses).
	StorageRuns int
	// WallSeconds accumulates real time spent profiling, for Figure 14.
	WallSeconds float64
}

type cfKey struct {
	op  string
	fid format.Fidelity
}

type retKey struct {
	sf format.StorageFormat
	s  format.Sampling
}

// New returns a profiler over the scene with the default 10-second clip and
// the virtual clock.
func New(scene vidsim.Scene) *Profiler {
	return &Profiler{
		Source:     vidsim.NewSource(scene),
		ClipFrames: DefaultClipFrames,
		refs:       make(map[string]ops.Output),
		cfMemo:     make(map[cfKey]CFProfile),
		sfMemo:     make(map[format.StorageFormat]SFProfile),
		retMemo:    make(map[retKey]float64),
		sfEncMem:   make(map[format.StorageFormat]*codec.Encoded),
	}
}

// clipDuration returns the profiling clip duration in seconds.
func (p *Profiler) clipDuration() float64 { return float64(p.ClipFrames) / vidsim.FPS }

// fullClip lazily renders the full-fidelity profiling clip.
func (p *Profiler) fullClip() []*frame.Frame {
	if p.clip == nil {
		p.clip = p.Source.Clip(p.ClipStart, p.ClipFrames)
	}
	return p.clip
}

// RenderFidelity converts the full-fidelity clip to the target fidelity the
// same way retrieval does: temporal sampling, quality quantisation (the
// encode-side transform), then downscale and crop.
func RenderFidelity(full []*frame.Frame, fid format.Fidelity) []*frame.Frame {
	picked := codec.SampleTimeline(full, fid.Sampling)
	clones := make([]*frame.Frame, len(picked))
	for i, f := range picked {
		clones[i] = f.Clone()
	}
	codec.ApplyQuality(clones, fid.Quality)
	tw, th := vidsim.Dims(fid.Res)
	out := make([]*frame.Frame, len(clones))
	for i, f := range clones {
		g := f.Downscale(tw, th)
		if fid.Crop != format.Crop100 {
			g = g.CropCenter(fid.Crop.Fraction())
		}
		out[i] = g
	}
	return out
}

// referenceLocked returns (computing and memoising if needed) the
// operator's output on the ingestion-format clip: the accuracy ground
// truth.
func (p *Profiler) referenceLocked(op ops.Operator) ops.Output {
	if out, ok := p.refs[op.Name()]; ok {
		return out
	}
	t0 := time.Now()
	out, _ := ops.RunAtFidelity(op, p.fullClip(), format.MaxFidelity())
	p.WallSeconds += time.Since(t0).Seconds()
	p.refs[op.Name()] = out
	return out
}

// ProfileConsumption profiles one (operator, fidelity) pair: it prepares
// sample frames in the fidelity, runs the operator over them, and measures
// accuracy and consumption speed (§4.2). Results are memoised.
func (p *Profiler) ProfileConsumption(op ops.Operator, fid format.Fidelity) CFProfile {
	key := cfKey{op.Name(), fid}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prof, ok := p.cfMemo[key]; ok {
		return prof
	}
	ref := p.referenceLocked(op)
	t0 := time.Now()
	frames := RenderFidelity(p.fullClip(), fid)
	out, st := ops.RunAtFidelity(op, frames, fid)
	wall := time.Since(t0).Seconds()
	p.WallSeconds += wall
	var opSec float64
	if p.Mode == Wall {
		opSec = wall
	} else {
		opSec = OpSeconds(st)
	}
	if opSec <= 0 {
		opSec = 1e-9
	}
	prof := CFProfile{
		Fidelity: fid,
		Accuracy: ops.F1(ref, out),
		Speed:    p.clipDuration() / opSec,
	}
	p.cfMemo[key] = prof
	p.ConsumptionRuns++
	return prof
}

// ProfileStorage profiles one storage format: encoding the sample clip into
// it, measuring the stored size and the ingest (transcoding) cost. Results
// are memoised (§4.3's "memoization is effective").
func (p *Profiler) ProfileStorage(sf format.StorageFormat) SFProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.profileStorageLocked(sf)
}

func (p *Profiler) profileStorageLocked(sf format.StorageFormat) SFProfile {
	if prof, ok := p.sfMemo[sf]; ok {
		return prof
	}
	t0 := time.Now()
	full := p.fullClip()
	var srcPixels int64
	for _, f := range full {
		srcPixels += int64(f.NumPixels())
	}
	// Spatial/temporal transform only: quality is the encoder's job.
	fidNoQ := sf.Fidelity
	fidNoQ.Quality = format.QBest
	frames := RenderFidelity(full, fidNoQ)
	prof := SFProfile{SF: sf}
	if sf.Coding.Raw {
		var bytes int64
		for _, f := range frames {
			bytes += int64(f.Bytes())
		}
		prof.BytesPerSec = float64(bytes) / p.clipDuration()
		wall := time.Since(t0).Seconds()
		p.WallSeconds += wall
		if p.Mode == Wall {
			prof.IngestSec = wall / p.clipDuration()
		} else {
			prof.IngestSec = TransformSeconds(srcPixels) / p.clipDuration()
		}
	} else {
		enc, st, err := codec.Encode(frames, codec.ParamsFor(sf))
		if err != nil {
			// Encoding a profiling clip cannot fail for valid formats; a
			// failure here is a programming error.
			panic("profile: " + err.Error())
		}
		wall := time.Since(t0).Seconds()
		p.WallSeconds += wall
		prof.BytesPerSec = float64(enc.Size()) / p.clipDuration()
		if p.Mode == Wall {
			prof.IngestSec = wall / p.clipDuration()
		} else {
			prof.IngestSec = (EncodeSeconds(st, sf.Coding.Speed, enc.Size()) + TransformSeconds(srcPixels)) / p.clipDuration()
		}
		p.sfEncMem[sf] = enc
	}
	p.sfMemo[sf] = prof
	p.StorageRuns++
	return prof
}

// RetrievalSpeed profiles how fast the storage format can supply frames to
// a consumer sampling at the given rate: disk read, (skip-)decode and
// fidelity conversion, as × video realtime. Results are memoised.
func (p *Profiler) RetrievalSpeed(sf format.StorageFormat, s format.Sampling) float64 {
	key := retKey{sf, s}
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.retMemo[key]; ok {
		return v
	}
	var sec float64
	if sf.Coding.Raw {
		fidNoQ := sf.Fidelity
		fidNoQ.Quality = format.QBest
		frames := RenderFidelity(p.fullClip(), fidNoQ)
		pts := make([]int, len(frames))
		for i, f := range frames {
			pts[i] = f.PTS
		}
		idx := codec.SelectPositions(pts, s)
		var bytes, pixels int64
		for _, j := range idx {
			bytes += int64(frames[j].Bytes())
			pixels += int64(frames[j].NumPixels())
		}
		sec = RawReadSeconds(bytes, len(idx)) + TransformSeconds(pixels)
	} else {
		p.profileStorageLocked(sf) // encodes the clip into sfEncMem[sf]
		enc := p.sfEncMem[sf]
		t0 := time.Now()
		keep := keepSet(enc, s)
		_, st, err := enc.DecodeSampled(func(i int) bool { return keep[i] })
		if err != nil {
			panic("profile: " + err.Error())
		}
		wall := time.Since(t0).Seconds()
		p.WallSeconds += wall
		if p.Mode == Wall {
			sec = wall
		} else {
			sec = DecodeSeconds(st, st.BytesFlate) + TransformSeconds(st.Pixels())
		}
	}
	if sec <= 0 {
		sec = 1e-9
	}
	speed := p.clipDuration() / sec
	p.retMemo[key] = speed
	return speed
}

// keepSet marks the stored positions a consumer with sampling s would
// actually touch, via the same nearest-position selection retrieval uses.
func keepSet(enc *codec.Encoded, s format.Sampling) []bool {
	idx := codec.SelectPositions(enc.PTSList(), s)
	keep := make([]bool, enc.N)
	for _, i := range idx {
		keep[i] = true
	}
	return keep
}

// Counters reports profiling effort so far.
type Counters struct {
	ConsumptionRuns int
	StorageRuns     int
	WallSeconds     float64
}

// Counters returns a snapshot of the profiling effort counters.
func (p *Profiler) Counters() Counters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Counters{p.ConsumptionRuns, p.StorageRuns, p.WallSeconds}
}
