// Package ingest implements VStore's ingestion stage: arriving video is
// transcoded into every storage format of the configuration and written to
// the segment store, one 8-second segment at a time (§2.2, §4.1). Ingestion
// cost is accounted in CPU-seconds per second of video — the quantity the
// ingest budget (Table 4) caps.
package ingest

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/vidsim"
)

// Stats summarises one ingestion run.
type Stats struct {
	Segments    int
	PerSF       []SFStats
	CPUSeconds  float64 // virtual transcoding CPU over the whole run
	WallSeconds float64
}

// SFStats is the per-storage-format breakdown.
type SFStats struct {
	SF         format.StorageFormat
	Bytes      int64
	CPUSeconds float64
}

// VideoSeconds returns the ingested video duration.
func (s Stats) VideoSeconds() float64 { return float64(s.Segments) * segment.Seconds }

// CPUSecPerVideoSec returns the ingest cost in cores.
func (s Stats) CPUSecPerVideoSec() float64 {
	if s.Segments == 0 {
		return 0
	}
	return s.CPUSeconds / s.VideoSeconds()
}

// BytesPerSec returns the storage cost in stored bytes per video second.
func (s Stats) BytesPerSec() float64 {
	if s.Segments == 0 {
		return 0
	}
	var b int64
	for _, sf := range s.PerSF {
		b += sf.Bytes
	}
	return float64(b) / s.VideoSeconds()
}

// Ingester transcodes a scene's stream into a set of storage formats.
// With a Pool, an encode borrows that pool's idle workers to split its
// GOPs' compression (codec.EncodeWith); without one it encodes alone.
type Ingester struct {
	Store *segment.Store
	SFs   []format.StorageFormat
	Pool  *sched.Pool
}

// Stream ingests nSegments segments of the scene under the given stream
// name, starting at segment index seg0.
func (ing *Ingester) Stream(scene vidsim.Scene, stream string, seg0, nSegments int) (Stats, error) {
	src := vidsim.NewSource(scene)
	stats := Stats{PerSF: make([]SFStats, len(ing.SFs))}
	for i := range ing.SFs {
		stats.PerSF[i].SF = ing.SFs[i]
	}
	t0 := time.Now()
	for si := 0; si < nSegments; si++ {
		idx := seg0 + si
		full := src.Clip(idx*segment.Frames, segment.Frames)
		for fi, sf := range ing.SFs {
			bytes, cpu, err := ing.TranscodeSegment(full, stream, sf, idx)
			if err != nil {
				return stats, fmt.Errorf("ingest: segment %d into %v: %w", idx, sf, err)
			}
			stats.PerSF[fi].Bytes += bytes
			stats.PerSF[fi].CPUSeconds += cpu
			stats.CPUSeconds += cpu
		}
		stats.Segments++
	}
	stats.WallSeconds = time.Since(t0).Seconds()
	return stats, nil
}

// TranscodeSegment converts one full-fidelity segment into sf and stores
// it, returning stored bytes and virtual CPU seconds. It is safe to call
// concurrently for distinct formats of one segment and for distinct
// segments: a batch ingest transcodes consecutive segments at once.
func (ing *Ingester) TranscodeSegment(full []*frame.Frame, stream string, sf format.StorageFormat, idx int) (int64, float64, error) {
	var srcPixels int64
	for _, f := range full {
		srcPixels += int64(f.NumPixels())
	}
	tw, th := vidsim.Dims(sf.Fidelity.Res)
	fid := sf.Fidelity
	fid.Quality = format.QBest // quality is applied by the encoder, not here
	frames := codec.ApplyFidelity(full, fid, tw, th)
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("fidelity %v yields no frames", sf.Fidelity)
	}
	cpu := profile.TransformSeconds(srcPixels)
	if sf.Coding.Raw {
		if err := ing.Store.PutRaw(stream, sf, idx, frames); err != nil {
			return 0, 0, err
		}
		var bytes int64
		for _, f := range frames {
			bytes += int64(f.Bytes())
		}
		return bytes, cpu, nil
	}
	var h codec.Helpers
	if ing.Pool != nil {
		h = ing.Pool.Batch()
	}
	enc, st, err := codec.EncodeWith(frames, codec.ParamsFor(sf), h)
	if err != nil {
		return 0, 0, err
	}
	cpu += profile.EncodeSeconds(st, sf.Coding.Speed, enc.Size())
	if err := ing.Store.PutEncoded(stream, sf, idx, enc); err != nil {
		return 0, 0, err
	}
	return int64(enc.Size()), cpu, nil
}
