package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
	"sync/atomic"
)

// The codec's hot paths — one decode per retrieval, one encode per
// transcoded segment — used to allocate their scratch fresh on every call:
// two full plane buffers and a flate coder per call, plus a GOP staging
// buffer on encode. Under a query fanning hundreds of segment retrievals
// across a pool, that allocation traffic dominated the profile. All codec
// scratch is therefore pooled here via sync.Pool and flate.Resetter.
//
// Pooled memory NEVER aliases decoder output: reconstructed frames are
// carved from fresh per-GOP arenas (frame.NewBatch) and handed to the
// caller owned, so returning scratch to the pool cannot corrupt delivered
// or cached frames. The aliasing-safety tests in the retrieve package
// enforce this.

// poolingOn gates every pool below. It exists so tests can prove
// behaviour is byte-identical with pooling on and off: the pooling-off
// path is the reference pooled output is compared against.
var poolingOn atomic.Bool

func init() { poolingOn.Store(true) }

// SetPooling enables or disables codec buffer pooling and returns the
// previous setting. Pooling is on by default; disabling it makes every
// Get allocate fresh and every Put drop its buffer. Intended for tests.
func SetPooling(on bool) bool { return poolingOn.Swap(on) }

// planePair is the two-plane scratch both coder directions need: the
// decoder's (raw GOP read, reconstruction) pair, the encoder's
// (previous, current) quantised pair.
type planePair struct {
	a, b []byte
}

var planePairPool = sync.Pool{New: func() any { return new(planePair) }}

// getPlanePair returns a scratch pair with both planes sized to planeLen.
// Contents are arbitrary; both coder directions fully overwrite them.
func getPlanePair(planeLen int) *planePair {
	if !poolingOn.Load() {
		return &planePair{a: make([]byte, planeLen), b: make([]byte, planeLen)}
	}
	p := planePairPool.Get().(*planePair)
	if cap(p.a) < planeLen {
		p.a = make([]byte, planeLen)
		p.b = make([]byte, planeLen)
	}
	p.a = p.a[:planeLen]
	p.b = p.b[:planeLen]
	return p
}

func putPlanePair(p *planePair) {
	if poolingOn.Load() {
		planePairPool.Put(p)
	}
}

var gopBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getGOPBuf returns an empty byte slice with at least the given capacity,
// the encoder's per-GOP staging buffer.
func getGOPBuf(capacity int) []byte {
	if !poolingOn.Load() {
		return make([]byte, 0, capacity)
	}
	bp := gopBufPool.Get().(*[]byte)
	if cap(*bp) < capacity {
		*bp = make([]byte, 0, capacity)
	}
	return (*bp)[:0]
}

func putGOPBuf(b []byte) {
	if poolingOn.Load() {
		b = b[:0]
		gopBufPool.Put(&b)
	}
}

// gopReader couples a bytes.Reader with a flate reader that decompresses
// from it, so one pooled object resets both. flate's decompressor
// allocates a ~32 KiB window plus Huffman tables on construction;
// flate.Resetter reuses all of it.
type gopReader struct {
	br bytes.Reader
	fr io.ReadCloser
}

var gopReaderPool = sync.Pool{New: func() any { return new(gopReader) }}

// getGOPReader returns a flate reader positioned at the start of data.
func getGOPReader(data []byte) *gopReader {
	var r *gopReader
	if poolingOn.Load() {
		r = gopReaderPool.Get().(*gopReader)
	} else {
		r = new(gopReader)
	}
	r.br.Reset(data)
	if r.fr == nil {
		r.fr = flate.NewReader(&r.br)
	} else {
		// NewReader's result always implements Resetter (documented).
		r.fr.(flate.Resetter).Reset(&r.br, nil)
	}
	return r
}

func (r *gopReader) Read(p []byte) (int, error) { return r.fr.Read(p) }

// close closes the flate stream (verifying its checksummed end state) and
// returns the reader to the pool on success. A reader that failed
// mid-stream is returned too: Reset fully reinitialises it.
func (r *gopReader) close() error {
	err := r.fr.Close()
	if poolingOn.Load() {
		gopReaderPool.Put(r)
	}
	return err
}

// flateWriterPools holds one pool per compress/flate level in use
// (FlateLevel returns 1..9). Index 0 is unused.
var flateWriterPools [10]sync.Pool

// getFlateWriter returns a flate writer at the given level writing to w.
// Levels outside [1,9] (never produced by SpeedStep.FlateLevel) fall back
// to a fresh writer.
func getFlateWriter(w io.Writer, level int) (*flate.Writer, error) {
	if level < 1 || level > 9 || !poolingOn.Load() {
		return flate.NewWriter(w, level)
	}
	if fw, ok := flateWriterPools[level].Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw, nil
	}
	return flate.NewWriter(w, level)
}

func putFlateWriter(fw *flate.Writer, level int) {
	if level >= 1 && level <= 9 && poolingOn.Load() {
		flateWriterPools[level].Put(fw)
	}
}
