package codec

import (
	"sync"
	"sync/atomic"
)

// The codec's hot paths — one decode per retrieval, one encode per
// transcoded segment — pool their scratch here via sync.Pool, as
// allocating it per call dominated the profile of a query fanning hundreds
// of retrievals: the encoder's plane pair and compressor, and the GOP
// buffer the encoder stages a GOP in and the decoder inflates one into.
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

// planePair is the encoder's (previous, current) quantised plane pair.
type planePair struct {
	a, b []byte
}

var planePairPool = sync.Pool{New: func() any { return new(planePair) }}

// getPlanePair returns a scratch pair with both planes sized to planeLen.
// Contents are arbitrary; the encoder fully overwrites them.
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

// getGOPBuf returns an empty byte slice with at least the given capacity:
// the encoder's per-GOP staging buffer, the decoder's inflated GOP.
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

var compressorPool = sync.Pool{New: func() any { return new(compressor) }}

// getCompressor returns a compressor; compress resets whatever state it
// holds.
func getCompressor() *compressor {
	if !poolingOn.Load() {
		return new(compressor)
	}
	return compressorPool.Get().(*compressor)
}

func putCompressor(c *compressor) {
	if poolingOn.Load() {
		compressorPool.Put(c)
	}
}
