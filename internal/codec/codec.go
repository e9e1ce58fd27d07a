// Package codec implements the software video codec that stands in for
// x264/NVDEC in this reproduction. Streams are grouped into GOPs (groups of
// pictures): each GOP starts with an intra-coded keyframe followed by
// delta-coded frames, and the whole GOP is one DEFLATE stream, encoded by
// the package's own compressor (deflate.go) and decoded by its own
// inflate. The compressor's bytes are its own, a function of the input and
// the level: a GOP of two 256 KiB chunks or more is parsed in fixed chunks
// (split.go), which idle workers lent to an encode (EncodeWith) parse
// beside it, and its bytes are Encode's. compress/flate is the test
// oracle: its reader decodes what the compressor writes, its writer bounds
// the compressor's size, and inflate decodes what its writer wrote, so
// streams stored with flate's bytes still decode.
//
// The coding knobs map mechanistically onto the codec:
//
//   - image quality (a fidelity knob, applied at encode time): pixel
//     quantisation step — coarser steps shrink the entropy-coded output and
//     distort the reconstruction, without changing decoded pixel counts;
//   - speed step: the DEFLATE effort level — slower levels compress harder
//     and encode slower;
//   - keyframe interval: the GOP length — decoding any frame requires
//     decoding its GOP from the keyframe onward, so consumers that sample
//     sparsely can skip whole GOPs when the interval is small (Figure 3b).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/sched"
	"repro/internal/vec"
)

// Params configures an encode.
type Params struct {
	Quality   format.Quality
	Speed     format.SpeedStep
	KeyframeI int // frames per GOP, >= 1
}

// ParamsFor builds encoder parameters from a storage format's knobs. It must
// not be called for raw (bypass) codings.
func ParamsFor(sf format.StorageFormat) Params {
	if sf.Coding.Raw {
		panic("codec: ParamsFor called with raw coding")
	}
	return Params{Quality: sf.Fidelity.Quality, Speed: sf.Coding.Speed, KeyframeI: sf.Coding.KeyframeI}
}

// Stats accounts for the deterministic work a codec call performed. Virtual
// time is derived from these by the profiler; wall time is measured by the
// caller when needed.
type Stats struct {
	PixelsIntra int64 // pixels intra-coded or reconstructed from keyframes
	PixelsDelta int64 // pixels delta-coded or delta-reconstructed
	BytesFlate  int64 // bytes pushed through the entropy coder
	Frames      int64 // frames encoded or reconstructed
	GOPsTouched int64 // GOPs read during decode
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.PixelsIntra += other.PixelsIntra
	s.PixelsDelta += other.PixelsDelta
	s.BytesFlate += other.BytesFlate
	s.Frames += other.Frames
	s.GOPsTouched += other.GOPsTouched
}

// Pixels returns the total pixels transformed.
func (s Stats) Pixels() int64 { return s.PixelsIntra + s.PixelsDelta }

// gop records one group of pictures inside the container.
type gop struct {
	start  uint32 // index of the keyframe within the stream
	frames uint32
	off    uint64 // offset into Data
	length uint64
}

// Encoded is an encoded stream: header fields, the per-GOP index that
// enables skip-decoding, the per-frame PTS table (stored streams may be
// temporally sampled, so positions are not consecutive timeline indices),
// and the entropy-coded payload.
type Encoded struct {
	W, H     int
	N        int // frame count
	FirstPTS int
	Params   Params
	gops     []gop
	pts      []int32 // original-timeline index of each stored frame
	Data     []byte
}

const (
	magic        uint32 = 0x56534331 // "VSC1"
	headerSize          = 4 + 2 + 2 + 4 + 4 + 1 + 1 + 2 + 4
	gopEntrySize        = 4 + 4 + 8 + 8
)

// Size returns the container size in bytes (header + indices + payload).
func (e *Encoded) Size() int {
	return headerSize + gopEntrySize*len(e.gops) + 4*len(e.pts) + len(e.Data)
}

// PTSAt returns the original-timeline index of the frame stored at position
// i (0..N-1).
func (e *Encoded) PTSAt(i int) int { return int(e.pts[i]) }

// PTSList returns the original-timeline indices of all stored frames.
func (e *Encoded) PTSList() []int {
	out := make([]int, len(e.pts))
	for i, p := range e.pts {
		out[i] = int(p)
	}
	return out
}

// planeLen returns the byte length of one frame's concatenated YUV planes.
func (e *Encoded) planeLen() int { return e.W*e.H + 2*((e.W/2)*(e.H/2)) }

// Encode compresses frames with the given parameters. All frames must share
// dimensions; the first frame's PTS is recorded and positions are assumed
// consecutive within whatever (possibly sampled) timeline the caller uses.
func Encode(frames []*frame.Frame, p Params) (*Encoded, Stats, error) {
	return EncodeWith(frames, p, nil)
}

// EncodeWith is Encode with idle workers lent by helpers: while one is
// free, it parses fixed chunks of a GOP's DEFLATE input beside the encode
// (split.go), and the bytes are Encode's. It returns once every helper it
// started has. Nil helpers encode alone.
func EncodeWith(frames []*frame.Frame, p Params, helpers Helpers) (*Encoded, Stats, error) {
	var st Stats
	if len(frames) == 0 {
		return nil, st, errors.New("codec: no frames to encode")
	}
	if p.KeyframeI < 1 {
		return nil, st, fmt.Errorf("codec: keyframe interval %d < 1", p.KeyframeI)
	}
	w, h := frames[0].W, frames[0].H
	for i, f := range frames {
		if f.W != w || f.H != h {
			return nil, st, fmt.Errorf("codec: frame %d is %dx%d, want %dx%d", i, f.W, f.H, w, h)
		}
	}
	e := &Encoded{W: w, H: h, N: len(frames), FirstPTS: frames[0].PTS, Params: p}
	e.pts = make([]int32, len(frames))
	for i, f := range frames {
		e.pts[i] = int32(f.PTS)
	}
	q := p.Quality.QuantStep()
	qt := newQuantTable(q)
	dz := byte(deadzone(q))
	planeLen := e.planeLen()
	gopLen := planeLen * min(p.KeyframeI, len(frames))
	if gopLen > maxDeflateInput {
		return nil, st, fmt.Errorf("codec: a GOP of %d bytes exceeds the compressor's %d", gopLen, maxDeflateInput)
	}
	// Pooled scratch: the (previous, current) quantised plane pair, the GOP
	// staging buffer, and one compressor for every GOP of the segment (and
	// across segments, through the pool).
	pair := getPlanePair(planeLen)
	defer putPlanePair(pair)
	prev, cur := pair.a, pair.b
	// Sized for the longest GOP, so staging a frame never regrows it.
	gopBuf := getGOPBuf(gopLen)
	defer putGOPBuf(gopBuf)
	c := getCompressor()
	defer putCompressor(c)
	for g := 0; g < len(frames); g += p.KeyframeI {
		end := min(g+p.KeyframeI, len(frames))
		gopBuf = gopBuf[:0]
		for i := g; i < end; i++ {
			quantise(cur, frames[i], qt)
			if i == g {
				gopBuf = append(gopBuf, cur...)
				st.PixelsIntra += int64(planeLen)
			} else {
				// Delta coding with a temporal deadzone, 32 samples a step
				// on AVX2: deltas within the sensor-noise band are coded as
				// zero, giving a real codec's inter-frame compression on
				// static scenes. The encoder reconstructs what the decoder
				// will see (cur[j] = prev[j] for suppressed deltas), so no
				// drift accumulates across a GOP.
				n := len(gopBuf)
				gopBuf = slices.Grow(gopBuf, planeLen)[:n+planeLen]
				deadzoneDelta(gopBuf[n:], cur, prev, dz)
				st.PixelsDelta += int64(planeLen)
			}
			prev, cur = cur, prev
			st.Frames++
		}
		// Each GOP is a complete DEFLATE stream, so decode can open any GOP
		// independently.
		off := len(e.Data)
		e.Data = c.compress(e.Data, gopBuf, p.Speed.FlateLevel(), helpers, splitChunk)
		st.BytesFlate += int64(len(gopBuf))
		e.gops = append(e.gops, gop{
			start:  uint32(g),
			frames: uint32(end - g),
			off:    uint64(off),
			length: uint64(len(e.Data) - off),
		})
	}
	return e, st, nil
}

// deadzone returns the temporal deadzone for a quantisation step: deltas of
// at most this magnitude are suppressed. The floor of 4 covers the sensor
// noise of the scene models; coarser quantisation needs an equally wide
// deadzone, or quantisation-boundary flicker (noise flipping a pixel across
// a step) would dominate the delta stream.
func deadzone(quantStep int) int {
	if quantStep > 4 {
		return quantStep
	}
	return 4
}

// deadzoneDelta sets delta[j] to d = cur[j]-prev[j], or, where |d| ≤ dz
// modulo 256, to 0 and cur[j] to prev[j]; dz < 64, so 2·dz fits seven bits.
// vec.DeadzoneDelta takes 32 samples a step on an AVX2 host, and a word
// eight: a borrow-free byte difference, dz added to its low bits, and a
// byte kept where its top bit or its low bits plus 127-2·dz set bit 7.
func deadzoneDelta(delta, cur, prev []byte, dz byte) {
	if vec.AVX2 {
		n := len(delta) &^ 31
		vec.DeadzoneDelta(delta[:n], cur[:n], prev[:n], dz)
		delta, cur, prev = delta[n:], cur[n:], prev[n:]
	}
	const ones, low7, top = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	dzs, over := uint64(dz)*ones, uint64(0x7f-2*dz)*ones
	n := len(delta) &^ 7
	for j := 0; j < n; j += 8 {
		c, p := binary.LittleEndian.Uint64(cur[j:]), binary.LittleEndian.Uint64(prev[j:])
		d := ((c | top) - (p & low7)) ^ ((c ^ ^p) & top)
		t := ((d & low7) + dzs) ^ (d & top)
		keep := ((((t & low7) + over) | t) & top >> 7) * 0xff
		binary.LittleEndian.PutUint64(delta[j:], d&keep)
		binary.LittleEndian.PutUint64(cur[j:], p^(p^c)&keep)
	}
	for j := n; j < len(delta); j++ {
		if d := cur[j] - prev[j]; d+dz <= 2*dz {
			delta[j], cur[j] = 0, prev[j]
		} else {
			delta[j] = d
		}
	}
}

// quantTable maps every sample value to its reconstruction under one
// quantisation step: the centre of the value's step-wide bin, clamped to 255.
type quantTable struct {
	step int
	lut  [256]byte
}

// newQuantTable builds the table for step q. Steps of at most 1 are the
// identity and have no table.
func newQuantTable(q int) *quantTable {
	if q <= 1 {
		return nil
	}
	t := &quantTable{step: q}
	for v := range t.lut {
		t.lut[v] = byte(min((v/q)*q+q/2, 255))
	}
	return t
}

// apply quantises p in place; a nil table leaves it as it is. A step that
// is a power of two needs no division, and its bin centre never passes 255:
// (v/q)·q + q/2 is v with its low bits cleared and bit q/2 set, which one
// mask and one or do to 32 samples at a time on an AVX2 host (vec.MaskOr)
// and to eight at a time in a word. Other steps, and the tail of every
// plane, go through the table.
func (t *quantTable) apply(p []byte) {
	if t == nil {
		return
	}
	if q := t.step; q&(q-1) == 0 && q <= 256 {
		if vec.AVX2 {
			n := len(p) &^ 31
			vec.MaskOr(p[:n], byte(^(q - 1)), byte(q/2))
			p = p[n:]
		}
		const ones = 0x0101010101010101
		keep, centre := ^(uint64(q-1) * ones), uint64(q/2)*ones
		for ; len(p) >= 8; p = p[8:] {
			binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)&keep|centre)
		}
	}
	for i, v := range p {
		p[i] = t.lut[v]
	}
}

// quantise writes the quantised planes of f into dst (concatenated Y, Cb,
// Cr).
func quantise(dst []byte, f *frame.Frame, t *quantTable) {
	n := copy(dst, f.Y)
	n += copy(dst[n:], f.Cb)
	copy(dst[n:], f.Cr)
	t.apply(dst)
}

// Decode reconstructs every frame.
func (e *Encoded) Decode() ([]*frame.Frame, Stats, error) {
	return e.DecodeSampled(func(int) bool { return true })
}

// DecodeSampled reconstructs only the frames for which keep(i) is true,
// where i is the frame's position within this stream (0..N-1). GOPs with no
// kept frame are skipped entirely; within a touched GOP, decoding proceeds
// from the keyframe to the last kept frame and stops. This is the mechanism
// by which small keyframe intervals accelerate sparse consumers (Fig 3b).
//
// Each touched GOP inflates into a pooled buffer; delivered frames are
// carved from fresh per-GOP arenas, never from pooled memory, so they are
// safe to cache and share under the frame package's read-only contract.
func (e *Encoded) DecodeSampled(keep func(i int) bool) ([]*frame.Frame, Stats, error) {
	var out []*frame.Frame
	var st Stats
	for gi := range e.gops {
		g := &e.gops[gi]
		last, kept := e.gopPlan(g, keep)
		if last < 0 {
			continue
		}
		var gst Stats
		var err error
		out, gst, err = e.decodeGOP(g, last, kept, keep, out)
		st.Add(gst)
		if err != nil {
			return nil, st, err
		}
	}
	return out, st, nil
}

// DecodeSampledParallel is DecodeSampled with independent GOPs decoded
// concurrently on p (sched.Ordered): each GOP is self-contained (keyframe
// plus deltas, its own flate stream), so GOPs of one segment reconstruct in
// parallel with no shared state. Results merge in position order and Stats
// accumulate in GOP order, so output and stats are identical to the
// sequential call, byte for byte, at any pool width. keep must be safe for
// concurrent use. A nil p, or a plan touching fewer than two GOPs, decodes
// sequentially.
func (e *Encoded) DecodeSampledParallel(keep func(i int) bool, p *sched.Pool) ([]*frame.Frame, Stats, error) {
	if p == nil {
		return e.DecodeSampled(keep)
	}
	type gopPlanned struct {
		g          *gop
		last, kept int
	}
	var plans []gopPlanned
	for gi := range e.gops {
		g := &e.gops[gi]
		if last, kept := e.gopPlan(g, keep); last >= 0 {
			plans = append(plans, gopPlanned{g, last, kept})
		}
	}
	if len(plans) < 2 {
		return e.DecodeSampled(keep)
	}
	type gopResult struct {
		frames []*frame.Frame
		st     Stats
	}
	results, err := sched.Ordered(p, len(plans), func(i int) (gopResult, error) {
		frames, st, err := e.decodeGOP(plans[i].g, plans[i].last, plans[i].kept, keep, nil)
		return gopResult{frames, st}, err
	})
	var out []*frame.Frame
	var st Stats
	for _, r := range results {
		st.Add(r.st)
		out = append(out, r.frames...)
	}
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// gopPlan scans the GOP's positions, returning the last kept position (-1
// if none) and the kept count — the decode horizon and the output arena
// size.
func (e *Encoded) gopPlan(g *gop, keep func(i int) bool) (last, kept int) {
	last = -1
	for i := int(g.start); i < int(g.start+g.frames); i++ {
		if keep(i) {
			last = i
			kept++
		}
	}
	return last, kept
}

// decodeGOP reconstructs one GOP from its keyframe through position last,
// appending the kept frames to out. Its planes inflate in one pass into one
// pooled buffer and are reconstructed there in place; output planes are
// carved from one fresh arena per GOP (frame.NewBatch), so a delivered
// frame never aliases pooled memory.
func (e *Encoded) decodeGOP(g *gop, last, kept int, keep func(i int) bool, out []*frame.Frame) ([]*frame.Frame, Stats, error) {
	var st Stats
	if int(g.off)+int(g.length) > len(e.Data) {
		return nil, st, fmt.Errorf("codec: gop at offset %d overruns payload", g.off)
	}
	planeLen := e.planeLen()
	st.GOPsTouched++
	st.BytesFlate += int64(g.length)
	// Unmarshal's expansion bound caps the buffer at 1032 times the payload.
	n := (last + 1 - int(g.start)) * planeLen
	buf := getGOPBuf(n)[:n]
	defer putGOPBuf(buf)
	if got, err := inflate(buf, e.Data[g.off:g.off+g.length]); err != nil {
		return nil, st, fmt.Errorf("codec: decoding frame %d: %w", int(g.start)+got/planeLen, err)
	}
	batch := frame.NewBatch(e.W, e.H, kept)
	bi := 0
	for i := int(g.start); i <= last; i++ {
		k := i - int(g.start)
		recon := buf[k*planeLen : (k+1)*planeLen]
		if k == 0 {
			st.PixelsIntra += int64(planeLen) // the keyframe is its own reconstruction
		} else {
			addBytes(recon, buf[(k-1)*planeLen:k*planeLen])
			st.PixelsDelta += int64(planeLen)
		}
		st.Frames++
		if keep(i) {
			f := batch[bi]
			bi++
			f.PTS = int(e.pts[i])
			n := copy(f.Y, recon)
			n += copy(f.Cb, recon[n:])
			copy(f.Cr, recon[n:])
			out = append(out, f)
		}
	}
	return out, st, nil
}

// addBytes adds delta into acc sample by sample, modulo 256. On an AVX2 host
// vec.AddBytes takes 32 samples per step; the rest, and every sample on other
// builds, go eight per step: the low seven bits of every byte are added with
// the top bits masked off, so no carry leaves its byte, and the top bits are
// then added without carry by exclusive or. A block of delta that is all
// zeros leaves acc as it is and is skipped. decodeGOP adds the previous
// reconstruction into the delta, not the delta into it, so there the skip
// fires only where that reconstruction is all zeros: seldom. (Adding each
// delta into one plane instead, which would make it fire on most blocks,
// measured slower on BenchmarkDecodeGolden.)
func addBytes(acc, delta []byte) {
	if vec.AVX2 {
		n := len(acc) &^ 31
		vec.AddBytes(acc[:n], delta[:n])
		acc, delta = acc[n:], delta[n:]
	}
	const low7, top = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	n := len(acc) &^ 7
	for j := 0; j < n; j += 8 {
		d := binary.LittleEndian.Uint64(delta[j:])
		if d == 0 {
			continue
		}
		a := binary.LittleEndian.Uint64(acc[j:])
		binary.LittleEndian.PutUint64(acc[j:], ((a&low7)+(d&low7))^((a^d)&top))
	}
	for j := n; j < len(acc); j++ {
		acc[j] += delta[j]
	}
}

// Marshal serialises the container to bytes.
func (e *Encoded) Marshal() []byte {
	out := make([]byte, 0, e.Size())
	var h [headerSize]byte
	binary.BigEndian.PutUint32(h[0:], magic)
	binary.BigEndian.PutUint16(h[4:], uint16(e.W))
	binary.BigEndian.PutUint16(h[6:], uint16(e.H))
	binary.BigEndian.PutUint32(h[8:], uint32(e.N))
	binary.BigEndian.PutUint32(h[12:], uint32(int32(e.FirstPTS)))
	h[16] = byte(e.Params.Quality)
	h[17] = byte(e.Params.Speed)
	binary.BigEndian.PutUint16(h[18:], uint16(e.Params.KeyframeI))
	binary.BigEndian.PutUint32(h[20:], uint32(len(e.gops)))
	out = append(out, h[:]...)
	var ge [gopEntrySize]byte
	for _, g := range e.gops {
		binary.BigEndian.PutUint32(ge[0:], g.start)
		binary.BigEndian.PutUint32(ge[4:], g.frames)
		binary.BigEndian.PutUint64(ge[8:], g.off)
		binary.BigEndian.PutUint64(ge[16:], g.length)
		out = append(out, ge[:]...)
	}
	var pb [4]byte
	for _, p := range e.pts {
		binary.BigEndian.PutUint32(pb[:], uint32(p))
		out = append(out, pb[:]...)
	}
	return append(out, e.Data...)
}

// Unmarshal parses a container serialised by Marshal.
func Unmarshal(b []byte) (*Encoded, error) {
	if len(b) < headerSize {
		return nil, errors.New("codec: container too short")
	}
	if binary.BigEndian.Uint32(b[0:]) != magic {
		return nil, errors.New("codec: bad magic")
	}
	e := &Encoded{
		W:        int(binary.BigEndian.Uint16(b[4:])),
		H:        int(binary.BigEndian.Uint16(b[6:])),
		N:        int(binary.BigEndian.Uint32(b[8:])),
		FirstPTS: int(int32(binary.BigEndian.Uint32(b[12:]))),
		Params: Params{
			Quality:   format.Quality(b[16]),
			Speed:     format.SpeedStep(b[17]),
			KeyframeI: int(binary.BigEndian.Uint16(b[18:])),
		},
	}
	ngops := int(binary.BigEndian.Uint32(b[20:]))
	need := headerSize + ngops*gopEntrySize + 4*e.N
	if len(b) < need {
		return nil, errors.New("codec: truncated index")
	}
	e.gops = make([]gop, ngops)
	for i := range e.gops {
		p := b[headerSize+i*gopEntrySize:]
		e.gops[i] = gop{
			start:  binary.BigEndian.Uint32(p[0:]),
			frames: binary.BigEndian.Uint32(p[4:]),
			off:    binary.BigEndian.Uint64(p[8:]),
			length: binary.BigEndian.Uint64(p[16:]),
		}
	}
	e.pts = make([]int32, e.N)
	ptsOff := headerSize + ngops*gopEntrySize
	for i := range e.pts {
		e.pts[i] = int32(binary.BigEndian.Uint32(b[ptsOff+4*i:]))
	}
	e.Data = b[need:]
	// The GOPs must tile positions [0, N) in order, each holding a frame, so
	// that every position decode hands to keep — and reads PTSAt for — is one
	// the PTS table has.
	next := uint64(0)
	for _, g := range e.gops {
		if uint64(g.start) != next || g.frames == 0 {
			return nil, errors.New("codec: GOP index does not tile the frames in order")
		}
		next += uint64(g.frames)
		if g.off > uint64(len(e.Data)) || g.length > uint64(len(e.Data))-g.off {
			return nil, errors.New("codec: GOP index overruns payload")
		}
		// Deflate expands at most 1032:1, so a GOP's payload bounds the
		// planes it can inflate to; a header claiming more would only make
		// decode allocate them before its first read fails.
		if pl := uint64(e.planeLen()); pl > 0 && uint64(g.frames) > maxInflate*g.length/pl {
			return nil, errors.New("codec: GOP payload too short for its frames")
		}
	}
	if next != uint64(e.N) {
		return nil, errors.New("codec: GOP index does not cover the frames")
	}
	return e, nil
}

// maxInflate is deflate's largest expansion: a 258-byte match in two bits.
const maxInflate = 1032
