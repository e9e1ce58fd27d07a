// The compressor below is derived from Go's compress/flate writer
// (deflate.go, deflatefast.go, huffman_bit_writer.go, huffman_code.go and
// token.go): Copyright 2009 The Go Authors. All rights reserved. Use of
// that source is governed by a BSD-style license that can be found in the
// LICENSE file of the Go distribution.

package codec

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"repro/internal/vec"
)

// A one-shot DEFLATE compressor: compress appends to dst src's DEFLATE
// stream at the levels SpeedStep.FlateLevel returns (1, 2, 5, 7, 9). It is
// compress/flate's writer cut to one-shot use: deflateFast at level 1, the
// hash-chain matcher above it, and the same block choices, Huffman codes
// and bit order. Its bytes are its own: the matcher parses the input where
// it lies, at absolute positions, with none of the marks flate's sliding
// window leaves; level 9 quarters its chain after a good match as zlib
// does (lazyAboveFrom); levels 5 to 9 parse an input of two chunks or more
// in fixed chunks (split.go); and level 1 cuts its blocks by token count,
// as the levels above it do, not by input (encSpeed). The bytes are a
// function of the input and the level alone. compress/flate is the oracle
// in the tests: its reader must decode every stream to its input, and its
// writer's output at the same level bounds the size.
//
// The chain walk returns the match flate's returns, sooner: matchLen
// compares eight bytes at a time (past 32 that agree, longMatchLen 32 at a
// time on an AVX2 host), and a candidate is tested on the four bytes that
// end a longer match before it is compared. At
// level 9 the walk also knows where each run of one value starts: a
// candidate must end in a run that starts as far into it as into the
// target, and once the match in hand is as long as the target's leading
// run, the walk tests at most one position of each run, whose chain is
// consecutive positions (findMatch). The bookkeeping costs one step per
// run, not per byte: the parse links a run's positions without hashing
// them (insertRange), and the run table is filled a run at a time
// (fillRuns).
const (
	windowSize          = 1 << 15
	windowMask          = windowSize - 1
	minMatchLength      = 4   // the shortest match the compressor emits
	maxMatchLength      = 258 // the longest match DEFLATE codes
	maxMatchOffset      = 1 << 15
	maxFlateBlockTokens = 1 << 14 // tokens after which a block is cut
	maxStoreBlockSize   = 65535
	hashBits            = 17
	hashSize            = 1 << hashBits
	skipNever           = math.MaxInt32
	runMask             = 2*windowSize - 1

	// maxDeflateInput bounds one stream: positions are held in 32 bits.
	maxDeflateInput = math.MaxInt32

	// A token is a literal (below matchType) or a match: its length minus 3
	// from bit 22, its offset minus 1 below.
	lengthShift = 22
	matchType   = 1 << 30
	endBlock    = 256 // the end-of-block literal
)

type token uint32

func matchToken(length, offset int) token {
	return token(matchType + (length-3)<<lengthShift + offset - 1)
}

func (t token) length() uint32 { return uint32(t-matchType) >> lengthShift }
func (t token) offset() uint32 { return uint32(t) & (1<<lengthShift - 1) }

// span returns how many input bytes t codes, without a branch: a literal
// has no match bit.
func (t token) span() int {
	return 1 + int(t/matchType)*(int(t>>lengthShift&0xff)+2)
}

// levelParams are compress/flate's per-level tuning: a match this long
// quarters the chain walk that seeks a longer one, a previous match this
// long is not re-searched, a match this long ends the walk, the chain's
// length, and the longest match whose positions are all hashed (skipNever:
// every one is).
type levelParams struct{ good, lazy, nice, chain, fastSkipHashing int }

// The levels SpeedStep.FlateLevel returns but 1, which has its own matcher.
var levels = [10]levelParams{
	2: {4, 0, 16, 8, 5},
	5: {8, 16, 32, 32, skipNever},
	7: {8, 32, 128, 256, skipNever},
	9: {32, 258, 258, 4096, skipNever},
}

// skipRunsFrom is the lowest level whose chain walk skips runs. Keeping the
// run table costs a pass over every input byte, and only the level-9 chain
// is long enough for the skip to repay it (BenchmarkEncodeGolden).
const skipRunsFrom = 9

// lazyAboveFrom is the lowest level whose lazy search, after a match, asks
// for a longer one, as zlib's does, so that a previous match of good bytes
// quarters the chain. Below it the search asks for any match and walks the
// whole chain again: on the scenes' golden GOPs the quartered walk made
// level 7 up to 1.9 % larger (miami), and level 9 at most 0.11 % larger or
// smaller, for a quarter less time (BenchmarkEncodeGolden).
const lazyAboveFrom = 9

// compressor is the whole state of one parse, pooled between calls. Its
// pointers come first, so the garbage collector scans only its first 13 KB,
// not its 1.2 MB of tables.
type compressor struct {
	w bitWriter

	levelParams
	level int
	runs  bool // the chain walk skips runs

	src            []byte // the input, whole
	index          int    // the position the parse visits next
	byteAvailable  bool   // src[index-1] is still to be emitted
	length, offset int    // the match found at index-1
	tokens         []token
	blockStart     int // the position the unwritten tokens start at
	cut            int // the token count at which a block is written, or -1

	split *splitJob // the split parse of this compressor's input, kept for its buffers

	// runStart holds positions [runFrom, runEnd) or the last 2·windowSize of
	// them; the parse extends it on reaching runNext.
	runFrom, runEnd, runNext int

	fast fastMatcher // its table follows its one pointer

	// Hash chains: hashHead[h] is one more than the latest position whose
	// four bytes hash to h, and hashPrev[p&windowMask] one more than the
	// position before p with the same hash; 0 is none.
	hashHead [hashSize]uint32
	hashPrev [windowSize]uint32

	// runStart[p&runMask] is a position q <= p, not below runFrom, with
	// src[q..p] one value.
	runStart [2 * windowSize]int32
}

// compress appends to dst src's DEFLATE stream at level 1, 2, 5, 7 or 9.
// The lazy levels parse an input of two chunks of chunk bytes or more in
// such chunks, with workers lent by h, if any, parsing some (split.go).
func (d *compressor) compress(dst, src []byte, level int, h Helpers, chunk int) []byte {
	d.reset(src, level)
	d.w.out = dst
	if level == 1 {
		d.encSpeed()
	} else {
		if d.fastSkipHashing != skipNever || len(src) < 2*chunk {
			d.parse()
		} else {
			d.parseSplit(h, chunk)
		}
		if len(d.tokens) > 0 {
			d.writeBlock()
		}
	}
	d.w.writeStoredHeader(0, true)
	d.w.flush()
	out := d.w.out
	d.w.out, d.src, d.fast.prev = nil, nil, nil
	return out
}

// reset readies d to parse src from its start.
func (d *compressor) reset(src []byte, level int) {
	d.src, d.level = src, level
	d.w.bits, d.w.nbits = 0, 0
	if d.tokens == nil {
		d.tokens = make([]token, 0, maxStoreBlockSize+1)
	}
	d.tokens = d.tokens[:0]
	d.blockStart, d.cut = 0, maxFlateBlockTokens
	if level == 1 {
		d.fast.reset()
		return
	}
	d.levelParams = levels[level]
	d.runs = level >= skipRunsFrom
	clear(d.hashHead[:])
	clear(d.hashPrev[:])
	d.index, d.byteAvailable = 0, false
	d.length, d.offset = minMatchLength-1, 0
	d.runFrom, d.runEnd, d.runNext = 0, 0, 0
	if !d.runs {
		d.runNext = math.MaxInt
	}
}

// fillRuns extends the run table a window past the parse, one run of one
// value at a time: longMatchLen finds where the run ends, and every
// position up to there gets its start. The chain walk at index reads the
// table from index-windowSize to index+maxMatchLength.
func (d *compressor) fillRuns() {
	src := d.src
	end := min(d.index+windowSize, len(src))
	for p := d.runEnd; p < end; {
		r := int32(p)
		if p > d.runFrom && src[p] == src[p-1] {
			r = d.runStart[(p-1)&runMask]
		}
		q := p + 1
		if q < end && src[q] == src[p] {
			q += 1 + longMatchLen(src[q+1:end], src[q:end], end-q-1)
		}
		for p < q { // in up to two pieces, where the table wraps
			t := d.runStart[p&runMask:]
			t = t[:min(len(t), q-p)]
			for k := range t {
				t[k] = r
			}
			p += len(t)
		}
	}
	d.runEnd, d.runNext = end, end-maxMatchLength
	if end == len(d.src) {
		d.runNext = math.MaxInt
	}
}

// writeBlock writes the tokens as one block.
func (d *compressor) writeBlock() {
	end := d.blockStart
	for _, t := range d.tokens {
		end += t.span()
	}
	d.w.writeBlock(d.tokens, d.src[d.blockStart:end])
	d.blockStart = end
	d.tokens = d.tokens[:0]
}

// feed appends tokens to the block being built, writing each full block.
func (d *compressor) feed(tokens []token) {
	for len(tokens) > 0 {
		n := copy(d.tokens[len(d.tokens):d.cut], tokens)
		d.tokens, tokens = d.tokens[:len(d.tokens)+n], tokens[n:]
		if len(d.tokens) == d.cut {
			d.writeBlock()
		}
	}
}

func hash4(b []byte) uint32 {
	return (binary.BigEndian.Uint32(b) * 0x1e35a7bd) >> (32 - hashBits)
}

// insert links position p into its hash chain and returns the position the
// link leads to, or -1.
func (d *compressor) insert(p int) int {
	hh := &d.hashHead[hash4(d.src[p:p+minMatchLength])]
	prev := *hh
	d.hashPrev[p&windowMask] = prev
	*hh = uint32(p + 1)
	return int(prev) - 1
}

// insertRange links positions [from, to), each with four bytes left, into
// their hash chains, as insert on each in turn would. Where src[p-1..p+3] is
// one value, p hashes as p-1 did and p-1, just linked, heads that chain, so
// p's link is p-1: the positions of a run are linked by one store each, and
// the chain's head is set once, to the run's last.
func (d *compressor) insertRange(from, to int) {
	src := d.src
	for p := from; p < to; {
		d.insert(p)
		if p++; p < to && load32(src, p) == uint32(src[p-1])*0x01010101 {
			// p, and every later position whose fourth byte is still the
			// value, up to to.
			q := p + 1 + longMatchLen(src[p+4:], src[p+3:], to-p-1)
			for p < q { // in up to two pieces, where the table wraps
				t := d.hashPrev[p&windowMask:]
				t = t[:min(len(t), q-p)]
				for k := range t {
					t[k] = uint32(p + k)
				}
				p += len(t)
			}
			d.hashHead[hash4(src[q-1:])] = uint32(q)
		}
	}
}

// prime hashes the positions in [from, to) that have four bytes left,
// emitting nothing, and returns how many it hashed.
func (d *compressor) prime(from, to int) int {
	to = min(to, len(d.src)-(minMatchLength-1))
	d.insertRange(from, to)
	return max(to-from, 0)
}

// findMatch walks the chain from prevHead down to minIndex, at most d.chain
// candidates, a quarter of them if prevLength is good, for a match at pos
// longer than prevLength. It returns what compress/flate's walk returns.
// Where runs are tracked and pos starts with a ≥ 4 copies of a value v and
// then another byte, a match in hand a long is beaten only by a candidate
// holding exactly a copies, so the walk tests one position of each run and
// charges the tries of every position it passes.
func (d *compressor) findMatch(pos, prevHead, prevLength, lookahead, minIndex int) (length, offset int, ok bool) {
	minMatchLook := min(maxMatchLength, lookahead)
	win := d.src[0 : pos+minMatchLook]
	nice := min(d.nice, len(win)-pos)
	tries := d.chain
	length = prevLength
	if length >= d.good {
		tries >>= 2
	}
	wPos := win[pos:]
	// A candidate that beats length matches the four bytes that end at
	// pos+length, and where runs are tracked, the run of one value those
	// end in starts as far into the candidate as into pos (or before both).
	tail := binary.LittleEndian.Uint32(win[pos+length-3:])
	var run, a int
	if d.runs {
		run = max(int(d.runStart[(pos+length)&runMask])-pos, 0)
		if a = 1 + matchLen(wPos[1:], wPos, min(minMatchLook-1, 32)); a == 33 {
			a += longMatchLen(wPos[33:], wPos[32:], minMatchLook-33)
		}
		if a < minMatchLength || a == minMatchLook {
			a = 0 // no run of four followed by another byte
		}
	}
	for i := prevHead; ; {
		match := binary.LittleEndian.Uint32(win[i+length-3:]) == tail
		b := 0 // how many copies of v i holds, up to a, once known
		if d.runs {
			exact := a > 0 && length >= a // only a candidate of a copies beats length
			r := int(d.runStart[(i+length)&runMask])
			match = match && max(r-i, 0) == run
			if exact { // a run reaching i+a holds too many copies
				r = int(d.runStart[(i+a)&runMask])
				match = match && r > i
			}
			if !match && r < i {
				// One value fills src[r..i+a] (or i+length), so every
				// position down to r fails as i did, and the chain through
				// them is i-1, ..., r: go to r (or minIndex) at once.
				j := max(r, minIndex)
				if tries -= i - j; tries <= 0 {
					break
				}
				i = j
				match = false
			} else if exact && !match {
				if b = matchLen(win[i:], wPos, min(a, 32)); b == 32 {
					b += longMatchLen(win[i+32:], wPos[32:], a-32)
				}
			}
		}
		if match {
			n := matchLen(win[i:], wPos, min(minMatchLook, 32))
			if n == 32 { // a compare this long may run to the end
				n += longMatchLen(win[i+32:], wPos[32:], minMatchLook-32)
			}
			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length, offset, ok = n, pos-i, true
				if n >= nice {
					break
				}
				tail = binary.LittleEndian.Uint32(win[pos+n-3:])
				if d.runs {
					run = max(int(d.runStart[(pos+n)&runMask])-pos, 0)
				}
			}
			b = min(n, a)
		}
		if b >= minMatchLength && length >= a {
			// i holds b copies of v, so i-(a-b) holds a if the run starts
			// there; those between hold too few, those below too many.
			lo := max(int(d.runStart[i&runMask]), minIndex)
			j, test := i-(a-b), b < a
			if !test || j < lo {
				j, test = lo, false
			}
			if tries -= i - j; tries <= 0 {
				break
			}
			if i = j; test {
				continue
			}
		}
		if tries--; tries <= 0 || i == minIndex {
			// Out of tries, or i's link is gone or below minIndex:
			// pos-windowSize shares pos's hashPrev entry.
			break
		}
		if i = int(d.hashPrev[i&windowMask]) - 1; i < minIndex {
			break
		}
	}
	return
}

// matchLen returns how many leading bytes of a and b agree, up to max;
// both hold at least max bytes. It compares eight bytes a step.
func matchLen(a, b []byte, max int) int {
	a, b = a[:max], b[:max]
	n := 0
	for ; n+8 <= max; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < max && a[n] == b[n]; n++ {
	}
	return n
}

// longMatchLen is matchLen for a compare that likely runs long: on an AVX2
// host vec.MatchLen takes 32 bytes a step, and matchLen the rest.
func longMatchLen(a, b []byte, max int) int {
	n := 0
	if k := max &^ 31; vec.AVX2 && k > 0 {
		if n = vec.MatchLen(a[:k], b[:k]); n < k {
			return n
		}
	}
	return n + matchLen(a[n:], b[n:], max-n)
}

// parse tokenises d.src from d.index to its end with compress/flate's lazy
// (levels 5, 7, 9) or greedy (2) matching, writing each full block, and
// emits the byte still pending at the end. It links each position it
// visits with insert and the positions a match covers with insertRange.
func (d *compressor) parse() {
	src := d.src
	maxInsertIndex := len(src) - (minMatchLength - 1) // positions with four bytes left
	lazy := d.fastSkipHashing == skipNever
	for {
		if d.index >= d.runNext {
			d.fillRuns()
		}
		lookahead := len(src) - d.index
		if lookahead == 0 {
			if d.byteAvailable {
				d.tokens = append(d.tokens, token(src[d.index-1]))
				d.byteAvailable = false
				if len(d.tokens) == d.cut {
					d.writeBlock()
				}
			}
			return
		}
		chainHead := -1
		if d.index < maxInsertIndex {
			chainHead = d.insert(d.index)
		}
		prevLength, prevOffset := d.length, d.offset
		d.length, d.offset = minMatchLength-1, 0
		minIndex := max(d.index-windowSize, 0)
		if chainHead >= minIndex &&
			(!lazy && lookahead > minMatchLength-1 || lazy && lookahead > prevLength && prevLength < d.lazy) {
			bar := minMatchLength - 1
			if d.level >= lazyAboveFrom {
				bar = max(bar, prevLength)
			}
			if n, off, ok := d.findMatch(d.index, chainHead, bar, lookahead, minIndex); ok {
				d.length, d.offset = n, off
			}
		}
		if !lazy && d.length >= minMatchLength || lazy && prevLength >= minMatchLength && d.length <= prevLength {
			// Emit the match found here (greedy) or at the previous
			// position, which this one does not beat (lazy).
			if lazy {
				d.tokens = append(d.tokens, matchToken(prevLength, prevOffset))
			} else {
				d.tokens = append(d.tokens, matchToken(d.length, d.offset))
			}
			// Link every position up to the match's end, but for a greedy
			// match longer than fastSkipHashing.
			if d.length <= d.fastSkipHashing {
				newIndex := d.index + d.length
				if lazy {
					newIndex = d.index + prevLength - 1
				}
				d.insertRange(d.index+1, min(newIndex, maxInsertIndex))
				d.index = newIndex
				if lazy {
					d.byteAvailable = false
					d.length = minMatchLength - 1
				}
			} else {
				d.index += d.length
			}
			if len(d.tokens) == d.cut {
				d.writeBlock()
			}
		} else {
			if !lazy || d.byteAvailable {
				i := d.index
				if lazy {
					i--
				}
				d.tokens = append(d.tokens, token(src[i]))
				if len(d.tokens) == d.cut {
					d.writeBlock()
				}
			}
			d.index++
			d.byteAvailable = lazy
		}
	}
}

// encSpeed matches src in blocks of maxStoreBlockSize bytes with
// deflateFast's matcher, as compress/flate does at level 1, a last block
// under 128 bytes as literals. Its tokens go through the lazy levels'
// block writer, which cuts a block every maxFlateBlockTokens tokens and
// writes it in the smallest code: where flate builds codes for every
// maxStoreBlockSize bytes of input, a well-matched input shares one.
func (d *compressor) encSpeed() {
	for src := d.src; len(src) > 0; {
		block := src[:min(len(src), maxStoreBlockSize)]
		src = src[len(block):]
		if len(block) < 128 {
			d.fast.tokens = emitLiterals(d.fast.tokens[:0], block)
		} else {
			d.fast.tokens = d.fast.encode(d.fast.tokens[:0], block)
		}
		d.feed(d.fast.tokens)
	}
	if len(d.tokens) > 0 {
		d.writeBlock()
	}
}

// fastMatcher is compress/flate's deflateFast: Snappy's matcher, with one
// table entry per hash and matches into the previous block. Its offsets
// are ints, so they never need the rebase flate's int32 offsets take.
type fastMatcher struct {
	prev   []byte
	tokens []token // the current block's
	cur    int     // the table offset of the current block's start
	table  [1 << fastTableBits]fastEntry
}

type fastEntry struct {
	val    uint32 // the four bytes at offset
	offset int
}

const (
	fastTableBits = 14
	fastTableMask = 1<<fastTableBits - 1
	inputMargin   = 16 - 1
)

func (e *fastMatcher) reset() {
	clear(e.table[:])
	e.prev, e.cur = nil, maxStoreBlockSize
}

func fastHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - fastTableBits) }

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

// encode appends the tokens of src, at least 128 bytes, to dst.
func (e *fastMatcher) encode(dst []token, src []byte) []token {
	sLimit := len(src) - inputMargin
	nextEmit, s := 0, 0
	cv := load32(src, s)
	nextHash := fastHash(cv)
	for {
		// Look at every byte for 32 bytes, then every second for 32 more,
		// and so on, until a four-byte match turns up.
		skip := 32
		nextS := s
		var candidate fastEntry
		for {
			s = nextS
			bytesBetweenHashLookups := skip >> 5
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = e.table[nextHash&fastTableMask]
			now := load32(src, nextS)
			e.table[nextHash&fastTableMask] = fastEntry{offset: s + e.cur, val: cv}
			nextHash = fastHash(now)
			if offset := s - (candidate.offset - e.cur); offset <= maxMatchOffset && cv == candidate.val {
				break
			}
			cv = now
		}
		dst = emitLiterals(dst, src[nextEmit:s])
		// Emit the match, extended, and then any match that starts right
		// after it.
		for {
			s += 4
			t := candidate.offset - e.cur + 4
			l := e.matchLen(s, t, src)
			dst = append(dst, matchToken(l+4, s-t))
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}
			x := binary.LittleEndian.Uint64(src[s-1:])
			prevHash := fastHash(uint32(x))
			e.table[prevHash&fastTableMask] = fastEntry{offset: e.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := fastHash(uint32(x))
			candidate = e.table[currHash&fastTableMask]
			e.table[currHash&fastTableMask] = fastEntry{offset: e.cur + s, val: uint32(x)}
			if offset := s - (candidate.offset - e.cur); offset > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = fastHash(cv)
				s++
				break
			}
		}
	}
emitRemainder:
	dst = emitLiterals(dst, src[nextEmit:])
	e.cur += len(src)
	e.prev = src // the input is whole and unchanged, so its blocks need no copy
	return dst
}

func emitLiterals(dst []token, lit []byte) []token {
	for _, v := range lit {
		dst = append(dst, token(v))
	}
	return dst
}

// matchLen returns the length of the match between src[s:] and src[t:],
// at most maxMatchLength-4; a negative t starts the match in e.prev.
func (e *fastMatcher) matchLen(s, t int, src []byte) int {
	s1 := min(s+maxMatchLength-4, len(src))
	if t >= 0 {
		n := matchLen(src[t:], src[s:], min(s1-s, 32))
		if n == 32 { // a compare this long may run to the end
			n += longMatchLen(src[t+32:], src[s+32:], s1-s-32)
		}
		return n
	}
	tp := len(e.prev) + t
	if tp < 0 {
		return 0
	}
	k := min(len(e.prev)-tp, s1-s)
	n := matchLen(e.prev[tp:], src[s:], k)
	if n < k || s+n == s1 {
		return n
	}
	return n + matchLen(src, src[s+n:], s1-s-n)
}

// Symbol tables of RFC 1951 §3.2.5, by code: the extra bits after a length
// or an offset code, the least length-3 and offset-1 it codes, and the
// length (0-255) and offset (0-255) codes.
var (
	lengthExtraBits, offsetExtraBits [30]uint8
	lengthBase, offsetBase           [30]uint32
	lengthCodes, offsetCodes         [256]uint8

	fixedLiteralEncoding, fixedOffsetEncoding = deflateTables()
)

func deflateTables() (fixedLit, fixedOff huffmanEncoder) {
	for c := range 30 {
		lengthExtraBits[c] = uint8(max(c/4-1, 0)) % 6 // code 28 is 258 exactly
		offsetExtraBits[c] = uint8(max(c/2-1, 0))
		if c > 0 {
			lengthBase[c] = lengthBase[c-1] + 1<<lengthExtraBits[c-1]
			offsetBase[c] = offsetBase[c-1] + 1<<offsetExtraBits[c-1]
		}
	}
	lengthBase[28] = 255
	for c := range 29 {
		for l := lengthBase[c]; l < min(lengthBase[c+1], 256); l++ {
			lengthCodes[l] = uint8(c)
		}
		for o := offsetBase[c]; o < min(offsetBase[c+1], 256); o++ {
			offsetCodes[o] = uint8(c)
		}
	}
	// The fixed codes of §3.2.6.
	for ch := range maxLit {
		bits, size := ch+48, 8
		switch {
		case ch >= 280:
			bits = ch + 192 - 280
		case ch >= 256:
			bits, size = ch-256, 7
		case ch >= 144:
			bits, size = ch+400-144, 9
		}
		fixedLit.codes[ch] = hcode{reverseBits(uint16(bits), uint8(size)), uint16(size)}
	}
	for ch := range maxDist {
		fixedOff.codes[ch] = hcode{reverseBits(uint16(ch), 5), 5}
	}
	return fixedLit, fixedOff
}

func lengthCode(length uint32) uint32 { return uint32(lengthCodes[length]) }

func offsetCode(off uint32) uint32 {
	switch {
	case off < 256:
		return uint32(offsetCodes[off])
	case off>>7 < 256:
		return uint32(offsetCodes[off>>7]) + 14
	}
	return uint32(offsetCodes[off>>14]) + 28
}

const codegenCodeCount = 19

// bitWriter is compress/flate's huffmanBitWriter, appending to out: bits
// gather least significant first and leave in six-byte words.
type bitWriter struct {
	out   []byte
	bits  uint64
	nbits uint

	literalFreq     [maxLit]int32
	offsetFreq      [maxDist]int32
	codegenFreq     [codegenCodeCount]int32
	codegen         [maxLit + maxDist + 1]uint8
	literalEncoding huffmanEncoder
	offsetEncoding  huffmanEncoder
	codegenEncoding huffmanEncoder
}

func (w *bitWriter) writeBits(b uint32, nb uint) {
	w.bits |= uint64(b) << w.nbits
	w.nbits += nb
	if w.nbits >= 48 {
		b := w.bits
		w.out = append(w.out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24), byte(b>>32), byte(b>>40))
		w.bits >>= 48
		w.nbits -= 48
	}
}

func (w *bitWriter) writeCode(c hcode) { w.writeBits(uint32(c.code), uint(c.len)) }

// flush writes out the pending bits, padding the last byte with zeros.
func (w *bitWriter) flush() {
	for ; w.nbits > 0; w.nbits -= min(w.nbits, 8) {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
	}
	w.bits = 0
}

func (w *bitWriter) writeStoredHeader(length int, eof bool) {
	var flag uint32
	if eof {
		flag = 1
	}
	w.writeBits(flag, 3)
	w.flush()
	w.writeBits(uint32(length), 16)
	w.writeBits(uint32(^uint16(length)), 16)
}

// writeStored writes input as a stored block.
func (w *bitWriter) writeStored(input []byte, eof bool) {
	w.writeStoredHeader(len(input), eof)
	w.flush()
	w.out = append(w.out, input...)
}

// storable reports whether input may go in a stored block.
func storable(input []byte) bool { return len(input) <= maxStoreBlockSize }

// generateCodegen run-length codes the literal and offset code lengths
// (RFC 1951 §3.2.7) into w.codegen, ending it with badCode, and counts each
// code-length symbol in w.codegenFreq.
func (w *bitWriter) generateCodegen(numLiterals, numOffsets int, litEnc, offEnc *huffmanEncoder) {
	const badCode = 255
	clear(w.codegenFreq[:])
	// codegen holds the lengths first, and the output overwrites them from
	// the front, never overtaking what is still to read.
	codegen := w.codegen[:]
	for i := range numLiterals {
		codegen[i] = uint8(litEnc.codes[i].len)
	}
	for i := range numOffsets {
		codegen[numLiterals+i] = uint8(offEnc.codes[i].len)
	}
	codegen[numLiterals+numOffsets] = badCode
	size := codegen[0]
	count := 1
	outIndex := 0
	put := func(v ...uint8) {
		outIndex += copy(codegen[outIndex:], v)
	}
	for inIndex := 1; size != badCode; inIndex++ {
		// count copies of size are still to code.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		if size != 0 {
			put(size)
			w.codegenFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				put(16, uint8(n-3))
				w.codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				put(18, uint8(n-11))
				w.codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				put(17, uint8(count-3))
				w.codegenFreq[17]++
				count = 0
			}
		}
		for ; count > 0; count-- {
			put(size)
			w.codegenFreq[size]++
		}
		size = nextSize
		count = 1
	}
	codegen[outIndex] = badCode
}

// dynamicSize returns the size in bits of a dynamic block with these codes,
// and how many code-length code lengths its header gives.
func (w *bitWriter) dynamicSize(litEnc, offEnc *huffmanEncoder, extraBits int) (size, numCodegens int) {
	numCodegens = codegenCodeCount
	for numCodegens > 4 && w.codegenFreq[codeOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		w.codegenEncoding.bitLength(w.codegenFreq[:]) +
		int(w.codegenFreq[16])*2 +
		int(w.codegenFreq[17])*3 +
		int(w.codegenFreq[18])*7
	return header + litEnc.bitLength(w.literalFreq[:]) + offEnc.bitLength(w.offsetFreq[:]) + extraBits, numCodegens
}

// writeDynamicHeader writes a non-final dynamic block's header.
func (w *bitWriter) writeDynamicHeader(numLiterals, numOffsets, numCodegens int) {
	w.writeBits(4, 3)
	w.writeBits(uint32(numLiterals-257), 5)
	w.writeBits(uint32(numOffsets-1), 5)
	w.writeBits(uint32(numCodegens-4), 4)
	for _, sym := range codeOrder[:numCodegens] {
		w.writeBits(uint32(w.codegenEncoding.codes[sym].len), 3)
	}
	for i := 0; w.codegen[i] != 255; i++ {
		sym := w.codegen[i]
		w.writeCode(w.codegenEncoding.codes[sym])
		if sym >= 16 {
			i++
			w.writeBits(uint32(w.codegen[i]), [3]uint{2, 3, 7}[sym-16])
		}
	}
}

// writeBlock writes tokens as a non-final block in the smallest of the
// fixed code, a dynamic code and, where input is storable, a stored block.
func (w *bitWriter) writeBlock(tokens []token, input []byte) {
	tokens = append(tokens, endBlock)
	numLiterals, numOffsets := w.indexTokens(tokens)
	// The extra bits cost the same under either code, so they count only
	// against a stored block.
	var extraBits int
	if storable(input) {
		for c := 257 + 8; c < numLiterals; c++ {
			extraBits += int(w.literalFreq[c]) * int(lengthExtraBits[c-257])
		}
		for c := 4; c < numOffsets; c++ {
			extraBits += int(w.offsetFreq[c]) * int(offsetExtraBits[c])
		}
	}
	literalEncoding, offsetEncoding := &fixedLiteralEncoding, &fixedOffsetEncoding
	size := 3 + fixedLiteralEncoding.bitLength(w.literalFreq[:]) + fixedOffsetEncoding.bitLength(w.offsetFreq[:]) + extraBits
	w.generateCodegen(numLiterals, numOffsets, &w.literalEncoding, &w.offsetEncoding)
	w.codegenEncoding.generate(w.codegenFreq[:], 7)
	dynamicSize, numCodegens := w.dynamicSize(&w.literalEncoding, &w.offsetEncoding, extraBits)
	if dynamicSize < size {
		size = dynamicSize
		literalEncoding, offsetEncoding = &w.literalEncoding, &w.offsetEncoding
	}
	if storable(input) && (len(input)+5)*8 < size {
		w.writeStored(input, false)
		return
	}
	if literalEncoding == &fixedLiteralEncoding {
		w.writeBits(2, 3)
	} else {
		w.writeDynamicHeader(numLiterals, numOffsets, numCodegens)
	}
	w.writeTokens(tokens, literalEncoding.codes[:], offsetEncoding.codes[:])
}

// indexTokens counts the tokens' symbols and builds their codes. It returns
// how many literal/length and offset codes the block's header gives.
func (w *bitWriter) indexTokens(tokens []token) (numLiterals, numOffsets int) {
	clear(w.literalFreq[:])
	clear(w.offsetFreq[:])
	for _, t := range tokens {
		if t < matchType {
			w.literalFreq[t]++
			continue
		}
		w.literalFreq[257+lengthCode(t.length())]++
		w.offsetFreq[offsetCode(t.offset())]++
	}
	numLiterals = maxLit
	for w.literalFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets = maxDist
	for numOffsets > 0 && w.offsetFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// A dynamic header needs at least one offset code.
		w.offsetFreq[0] = 1
		numOffsets = 1
	}
	w.literalEncoding.generate(w.literalFreq[:], 15)
	w.offsetEncoding.generate(w.offsetFreq[:], 15)
	return numLiterals, numOffsets
}

func (w *bitWriter) writeTokens(tokens []token, leCodes, oeCodes []hcode) {
	for _, t := range tokens {
		if t < matchType {
			w.writeCode(leCodes[t])
			continue
		}
		length := t.length()
		lc := lengthCode(length)
		w.writeCode(leCodes[lc+257])
		if eb := lengthExtraBits[lc]; eb > 0 {
			w.writeBits(length-lengthBase[lc], uint(eb))
		}
		offset := t.offset()
		oc := offsetCode(offset)
		w.writeCode(oeCodes[oc])
		if eb := offsetExtraBits[oc]; eb > 0 {
			w.writeBits(offset-offsetBase[oc], uint(eb))
		}
	}
}

// hcode is a Huffman code, bit-reversed, and its length.
type hcode struct{ code, len uint16 }

// huffmanEncoder builds compress/flate's length-limited Huffman codes.
type huffmanEncoder struct {
	codes     [maxLit]hcode
	freqcache [maxLit + 1]literalNode
	bitCount  [17]int32
}

type literalNode struct {
	literal uint16
	freq    int32
}

// levelInfo is the state of one depth of the tree bitCounts builds.
type levelInfo struct {
	level        int32
	lastFreq     int32 // the frequency of the level's last node
	nextCharFreq int32 // the frequency of the next leaf to add
	nextPairFreq int32 // the frequency of the next pair from the level below
	needed       int32 // the chains still to build at this level
}

func (h *huffmanEncoder) bitLength(freq []int32) int {
	var total int
	for i, f := range freq {
		if f != 0 {
			total += int(f) * int(h.codes[i].len)
		}
	}
	return total
}

// bitCounts returns how many literals of list (at least three, by rising
// frequency) get each code length up to maxBits, by package-merge.
func (h *huffmanEncoder) bitCounts(list []literalNode, maxBits int32) []int32 {
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = literalNode{math.MaxUint16, math.MaxInt32}
	maxBits = min(maxBits, n-1)
	// levels[0] is a bogus level whose needed is 0, so level 1's
	// nextPairFreq is never chosen. leafCounts[i][j] counts the literals
	// left of the level-j ancestor of level i's rightmost node.
	var levels [16]levelInfo
	var leafCounts [16][16]int32
	for level := int32(1); level <= maxBits; level++ {
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}
	// The top level needs 2n-2 items and has 2.
	levels[maxBits].needed = 2*n - 4
	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: close this level for good.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}
		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item is a leaf.
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = n
			l.nextCharFreq = list[n].freq
		} else {
			// The next item is a pair from the level below, which must
			// make two more items before its next pair is known.
			l.lastFreq = l.nextPairFreq
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}
		if l.needed--; l.needed == 0 {
			// This level is done: hand its last pair up.
			if l.level == maxBits {
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// Replenish the levels below that were stolen from.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}
	bitCount := h.bitCount[:maxBits+1]
	bits := 1
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		bitCount[bits] = counts[level] - counts[level-1]
		bits++
	}
	return bitCount
}

// assignEncodingAndSize gives the literals of list their codes (RFC 1951
// §3.2.2): the rarest take the longest, and one length's codes go out in
// literal order.
func (h *huffmanEncoder) assignEncodingAndSize(bitCount []int32, list []literalNode) {
	code := uint16(0)
	for n, bits := range bitCount {
		code <<= 1
		if n == 0 || bits == 0 {
			continue
		}
		chunk := list[len(list)-int(bits):]
		slices.SortFunc(chunk, func(a, b literalNode) int { return cmp.Compare(a.literal, b.literal) })
		for _, node := range chunk {
			h.codes[node.literal] = hcode{code: reverseBits(code, uint8(n)), len: uint16(n)}
			code++
		}
		list = list[0 : len(list)-int(bits)]
	}
}

// generate makes h the shortest code of at most maxBits per literal for
// the frequencies freq.
func (h *huffmanEncoder) generate(freq []int32, maxBits int32) {
	list := h.freqcache[:len(freq)+1]
	count := 0
	for i, f := range freq {
		if f != 0 {
			list[count] = literalNode{uint16(i), f}
			count++
		} else {
			h.codes[i].len = 0
		}
	}
	list = list[:count]
	if count <= 2 {
		// One or two literals: each gets one bit, in literal order.
		for i, node := range list {
			h.codes[node.literal] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	slices.SortFunc(list, func(a, b literalNode) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.literal, b.literal))
	})
	h.assignEncodingAndSize(h.bitCounts(list, maxBits), list)
}

func reverseBits(number uint16, bitLength uint8) uint16 {
	return bits.Reverse16(number << (16 - bitLength))
}
