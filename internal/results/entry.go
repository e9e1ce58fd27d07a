// Entry encoding: a compact, versioned binary layout for one stage's
// finalized per-segment output. The encoding is exact — int64 counters as
// varints, float64 accounting as IEEE bits — so a decoded entry reproduces
// the original computation bit for bit, which is what lets a materialized
// query remain byte-identical to a recomputed one.

package results

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/ops"
	"repro/internal/retrieve"
)

// Entry is one materialized stage output: what the operator produced over
// one segment's delivered frames, plus the exact retrieval and consumption
// accounting of the computation that produced it. Folding entries in
// segment order reproduces a recomputing query's stats exactly: the
// integer stats sum exactly in any grouping, and the one order-sensitive
// float (virtual seconds) is stored per segment and re-summed in the same
// order the sequential path uses.
type Entry struct {
	// Segs lists the segments whose frames the computation covered — for a
	// range entry (a stateful operator memoised over [Seg, End)), the
	// segments visible when the fill retrieved. Empty means the key's own
	// segment: the single-segment default. The store registers the entry
	// for invalidation under every listed segment, and a range lookup only
	// hits when the caller's visible set matches exactly — an eroded (or
	// differently-eroded) range recomputes instead of serving frames the
	// caller's snapshot would not deliver.
	Segs        []int
	PTS         []int           // consumed original-timeline frame indices
	Detections  []ops.Detection // operator detections over the covered segments
	Retrieval   retrieve.Stats  // the cold retrieval's accounting
	Consumption ops.Stats       // the operator's consumption accounting
}

const entryVersion = 1

// footprint is what a resident entry holds in memory, as the budget counts
// it: the Entry (slice headers, stats), 8 B per covered segment and consumed
// frame, one ops.Detection per detection, and the label bytes.
func (e Entry) footprint() int64 {
	n := int64(unsafe.Sizeof(e)) + 8*int64(len(e.Segs)+len(e.PTS))
	for _, d := range e.Detections {
		n += int64(unsafe.Sizeof(d)) + int64(len(d.Label))
	}
	return n
}

// encode serialises the entry.
func (e Entry) encode() []byte {
	// Size guess: varints dominate; labels are short.
	out := make([]byte, 0, 16+8*len(e.PTS)+32*len(e.Detections))
	out = append(out, entryVersion)
	for _, list := range [...][]int{e.Segs, e.PTS} {
		out = binary.AppendUvarint(out, uint64(len(list)))
		for _, v := range list {
			out = binary.AppendUvarint(out, uint64(int64(v)))
		}
	}
	out = binary.AppendUvarint(out, uint64(len(e.Detections)))
	for _, d := range e.Detections {
		out = binary.AppendUvarint(out, uint64(int64(d.PTS)))
		out = binary.AppendUvarint(out, uint64(len(d.Label)))
		out = append(out, d.Label...)
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(d.X))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(d.Y))
	}
	out = binary.AppendUvarint(out, uint64(e.Retrieval.BytesRead))
	out = binary.AppendUvarint(out, uint64(e.Retrieval.FramesDecoded))
	out = binary.AppendUvarint(out, uint64(e.Retrieval.FramesDelivered))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(e.Retrieval.VirtualSeconds))
	out = binary.AppendUvarint(out, uint64(e.Consumption.Pixels))
	out = binary.AppendUvarint(out, uint64(e.Consumption.Work))
	out = binary.AppendUvarint(out, uint64(e.Consumption.Frames))
	return out
}

// decodeEntry parses an encoded entry, rejecting truncation, trailing
// garbage, unknown versions and any spelling encode would not write, and
// allocates at most a small multiple of len(b) (FuzzDecodeEntry).
func decodeEntry(b []byte) (Entry, error) {
	if len(b) == 0 || b[0] != entryVersion {
		return Entry{}, fmt.Errorf("results: unknown entry version")
	}
	d := decoder{b: b[1:]}
	var e Entry
	e.Segs, e.PTS = d.ints(), d.ints()
	// A detection takes at least 18 bytes: two one-byte varints, two floats.
	if n := d.count(18); n > 0 {
		e.Detections = make([]ops.Detection, n)
		for i := range e.Detections {
			e.Detections[i].PTS = int(int64(d.uvarint()))
			e.Detections[i].Label = d.str(int(d.uvarint()))
			e.Detections[i].X = math.Float64frombits(d.u64())
			e.Detections[i].Y = math.Float64frombits(d.u64())
		}
	}
	e.Retrieval.BytesRead = int64(d.uvarint())
	e.Retrieval.FramesDecoded = int64(d.uvarint())
	e.Retrieval.FramesDelivered = int64(d.uvarint())
	e.Retrieval.VirtualSeconds = math.Float64frombits(d.u64())
	e.Consumption.Pixels = int64(d.uvarint())
	e.Consumption.Work = int64(d.uvarint())
	e.Consumption.Frames = int64(d.uvarint())
	if d.err {
		return Entry{}, fmt.Errorf("results: corrupt entry")
	}
	if len(d.b) != 0 {
		return Entry{}, fmt.Errorf("results: %d trailing bytes", len(d.b))
	}
	return e, nil
}

// decoder is a cursor over the encoded bytes; the first malformed read
// latches err and every later read returns zero.
type decoder struct {
	b   []byte
	err bool
}

func (d *decoder) uvarint() uint64 {
	if d.err {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) { // overflow, truncation, or a padded spelling
		d.err = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a list length, latching err when that many elements of at
// least minBytes each cannot fit in what is left — so a corrupt count never
// allocates.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.err = true
		return 0
	}
	return int(n)
}

// ints reads a counted list of ints, nil when empty.
func (d *decoder) ints() []int {
	var out []int
	if n := d.count(1); n > 0 {
		out = make([]int, n)
		for i := range out {
			out[i] = int(int64(d.uvarint()))
		}
	}
	return out
}

func (d *decoder) str(n int) string {
	if d.err || n < 0 || n > len(d.b) {
		d.err = true
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) u64() uint64 {
	if d.err || len(d.b) < 8 {
		d.err = true
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
