package codec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"slices"
)

// An RFC 1951 (DEFLATE) decoder, as strict as compress/flate's reader (its
// oracle in the tests), that copies matches inside its output: no window
// ring, and no copy out of one. Huffman tables are two-level: a primary
// table indexed by the next litRootBits (distRootBits) input bits, and for
// a longer code a subtable, linked from its primary slot and indexed by the
// bits after those. An entry holds the code's length in bits 0-3, the
// count of extra bits after it in bits 8-11, the symbol's value (literal,
// base length or distance, code-length symbol) in bits 16-31 and flags
// between; a link holds its subtable's offset and index width. The slots
// an incomplete code leaves (buildTable passes only the empty code and a
// single one-bit code) hold badBit. Only a real input bit leads into one:
// past the end of src the bit buffer holds zeros, and the one-bit code is 0.
const (
	litRootBits  = 10
	distRootBits = 8

	linkBit   = 1 << 4
	lengthBit = 1 << 5 // a length: a distance follows
	endBit    = 1 << 6 // the end of the block
	badBit    = 1 << 7 // no symbol a stream may use

	maxLit  = 286 // literal/length symbols a dynamic block may code
	maxDist = 30  // distance symbols a dynamic block may code
)

var (
	errCorrupt = errors.New("corrupt deflate stream")
	// codeOrder is the order in which a dynamic block gives the lengths of
	// the code-length code.
	codeOrder = [...]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	// The entry values of each alphabet's symbols (RFC 1951 §3.2.5; the
	// code-length code's 0-18 take the literals' values) and the fixed
	// codes (§3.2.6), built once. Literal/length symbols 286 and 287 and
	// distance symbols 30 and 31 have fixed codes but fail when read.
	litVals, distVals, fixedLit, fixedDist = tables()
)

func tables() (lit [288]uint32, dist [32]uint32, fixedLit [1 << litRootBits]uint32, fixedDist [1 << distRootBits]uint32) {
	for sym := range lit {
		lit[sym] = uint32(sym) << 16
	}
	lit[256], lit[286], lit[287] = endBit, badBit, badBit
	for i, base := range [...]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258} {
		extra := uint32(max(i/4-1, 0)) % 6 // symbol 285 is 258 exactly
		lit[257+i] = base<<16 | extra<<8 | lengthBit
	}
	for sym, base := range [...]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577} {
		dist[sym] = base<<16 | uint32(max(sym/2-1, 0))<<8
	}
	dist[30], dist[31] = badBit, badBit
	run := func(n int, length byte) []byte { return bytes.Repeat([]byte{length}, n) }
	buildTable(fixedLit[:], nil, litRootBits, slices.Concat(run(144, 8), run(112, 9), run(24, 7), run(8, 8)), lit[:])
	buildTable(fixedDist[:], nil, distRootBits, run(32, 5), dist[:])
	return lit, dist, fixedLit, fixedDist
}

// buildTable fills root (1<<rootBits entries) and the subtables it needs,
// reusing sub, with the canonical code of lengths (at most 288), whose
// symbols have the entry values vals. It reports false for a code that is
// over-subscribed or incomplete, but for the empty and the one-bit code.
func buildTable(root, sub []uint32, rootBits uint, lengths []uint8, vals []uint32) ([]uint32, bool) {
	var count, next [16]int
	maxLen := 0
	for _, n := range lengths {
		if n != 0 {
			maxLen = max(maxLen, int(n))
			count[n]++
		}
	}
	code := 0
	for n := 1; n <= maxLen; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	if code += count[maxLen]; code != 1<<maxLen {
		if maxLen > 0 && !(code == 1 && maxLen == 1) {
			return sub, false
		}
		for i := range root {
			root[i] = badBit
		}
	}
	// Codes are bit-reversed, as the bit buffer holds a code's first bit
	// lowest. A primary slot's subtable is as wide as the longest code that
	// starts with the slot's bits.
	var codes [288]uint16
	var width [1 << litRootBits]uint8
	rootMask := uint16(1)<<rootBits - 1
	for sym, n := range lengths {
		if n != 0 {
			codes[sym] = bits.Reverse16(uint16(next[n])) >> (16 - n)
			next[n]++
			if p := codes[sym] & rootMask; uint(n) > rootBits {
				width[p] = max(width[p], n-uint8(rootBits))
			}
		}
	}
	total := 0
	for p, w := range width[:1<<rootBits] {
		if w > 0 {
			root[p] = uint32(total)<<16 | linkBit | uint32(w)
			total += 1 << w
		}
	}
	sub = slices.Grow(sub[:0], total)[:total]
	for sym, n := range lengths {
		c, e := int(codes[sym]), vals[sym]|uint32(n)
		switch {
		case n == 0:
		case uint(n) <= rootBits:
			for i := c; i < len(root); i += 1 << n {
				root[i] = e
			}
		default:
			link := root[c&int(rootMask)]
			t := sub[link>>16 : link>>16+1<<(link&15)]
			for i := c >> rootBits; i < len(t); i += 1 << (uint(n) - rootBits) {
				t[i] = e
			}
		}
	}
	return sub, true
}

// inflater is the decoder's state between blocks.
type inflater struct {
	src  []byte
	pos  int    // next byte of src to load
	bits uint64 // unread input, next bit lowest; above nb, the bytes at pos or zeros
	nb   int    // valid bits in bits

	lit             [1 << litRootBits]uint32
	dist            [1 << distRootBits]uint32
	litSub, distSub []uint32
	lens            [maxLit + maxDist]uint8
}

// inflate decodes the DEFLATE stream src into dst and returns the bytes
// written. It stops once dst is full, wherever that falls in the stream,
// and fails with io.ErrUnexpectedEOF if src or its final block ends first.
func inflate(dst, src []byte) (int, error) {
	d := inflater{src: src}
	out := 0
	for out < len(dst) {
		header, err := d.read(3)
		if err != nil {
			return out, err
		}
		switch header >> 1 {
		case 0:
			out, err = d.stored(dst, out)
		case 1:
			out, err = d.huffman(dst, out, &fixedLit, nil, &fixedDist, nil)
		case 2:
			if err = d.readTables(); err == nil {
				out, err = d.huffman(dst, out, &d.lit, d.litSub, &d.dist, d.distSub)
			}
		default:
			err = errCorrupt
		}
		if err != nil || header&1 == 1 && out < len(dst) { // or the final block ended early
			return out, cmp.Or(err, io.ErrUnexpectedEOF)
		}
	}
	return out, nil
}

// refill tops the bit buffer up to at least 56 bits, or to what src has
// left.
func refill(src []byte, pos int, bits uint64, nb int) (int, uint64, int) {
	if pos+8 <= len(src) {
		// Load eight bytes and count the whole ones that fit: the bits above
		// nb are the next byte's, which the next load ORs in again.
		bits |= binary.LittleEndian.Uint64(src[pos:]) << uint(nb)
		return pos + (63-nb)>>3, bits, nb | 56
	}
	for ; nb < 56 && pos < len(src); pos++ {
		bits |= uint64(src[pos]) << uint(nb)
		nb += 8
	}
	return pos, bits, nb
}

// read consumes the next n bits, at most 56.
func (d *inflater) read(n int) (uint32, error) {
	d.pos, d.bits, d.nb = refill(d.src, d.pos, d.bits, d.nb)
	if d.nb < n {
		return 0, io.ErrUnexpectedEOF
	}
	v := uint32(d.bits & (1<<n - 1))
	d.bits >>= n
	d.nb -= n
	return v, nil
}

// stored copies a stored block, which starts at the next byte boundary.
func (d *inflater) stored(dst []byte, out int) (int, error) {
	d.pos -= d.nb / 8
	d.bits, d.nb = 0, 0
	if len(d.src)-d.pos < 4 {
		return out, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(d.src[d.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.src[d.pos+2:]) {
		return out, errCorrupt
	}
	d.pos += 4
	c := copy(dst[out:], d.src[d.pos:min(d.pos+n, len(d.src))])
	d.pos += c
	if out += c; c < n && out < len(dst) {
		return out, io.ErrUnexpectedEOF
	}
	return out, nil
}

// readTables reads a dynamic block's code lengths and builds its
// literal/length and distance tables.
func (d *inflater) readTables() error {
	v, err := d.read(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > maxLit || ndist > maxDist {
		return errCorrupt
	}
	var clens [len(codeOrder)]uint8
	for _, sym := range codeOrder[:nclen] {
		if v, err = d.read(3); err != nil {
			return err
		}
		clens[sym] = uint8(v)
	}
	// The code-length code is at most 7 bits long: the distance table's
	// primary holds it until the distance code replaces it.
	if _, ok := buildTable(d.dist[:], nil, distRootBits, clens[:], litVals[:]); !ok {
		return errCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.pos, d.bits, d.nb = refill(d.src, d.pos, d.bits, d.nb)
		e := d.dist[d.bits&(1<<distRootBits-1)]
		if d.nb < int(e&15) {
			return io.ErrUnexpectedEOF
		}
		d.bits >>= e & 15
		d.nb -= int(e & 15)
		sym := int(e >> 16)
		switch {
		case e&badBit != 0 || sym == 16 && i == 0:
			return errCorrupt
		case sym < 16:
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3-6 times; 17 and 18 repeat a
		// zero 3-10 and 11-138 times.
		if v, err = d.read([...]int{2, 3, 7}[sym-16]); err != nil {
			return err
		}
		rep, fill := [...]int{3, 3, 11}[sym-16]+int(v), uint8(0)
		if sym == 16 {
			fill = lens[i-1]
		}
		if i+rep > len(lens) {
			return errCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = fill
		}
	}
	var litOK, distOK bool
	d.litSub, litOK = buildTable(d.lit[:], d.litSub, litRootBits, lens[:nlit], litVals[:])
	d.distSub, distOK = buildTable(d.dist[:], d.distSub, distRootBits, lens[nlit:], distVals[:])
	if !litOK || !distOK {
		return errCorrupt
	}
	return nil
}

// huffman decodes a Huffman-coded block into dst from out, to the block's
// end or until dst is full. One refill holds a whole match, at most 48
// bits: a 15-bit length code, 5 extra bits, a 15-bit distance code and 13
// extra bits. Past the end of src the bits read as zeros, and nb going
// negative says that some were needed.
func (d *inflater) huffman(dst []byte, out int, lit *[1 << litRootBits]uint32, litSub []uint32, dist *[1 << distRootBits]uint32, distSub []uint32) (int, error) {
	src, pos, bits, nb := d.src, d.pos, d.bits, d.nb
	for {
		pos, bits, nb = refill(src, pos, bits, nb)
		e := lit[bits&(1<<litRootBits-1)]
		if e&linkBit != 0 {
			e = litSub[e>>16+uint32(bits>>litRootBits)&(1<<(e&15)-1)]
		}
		bits >>= e & 15
		if nb -= int(e & 15); nb < 0 {
			return out, io.ErrUnexpectedEOF
		}
		if e&(lengthBit|endBit|badBit) == 0 {
			dst[out] = byte(e >> 16)
			if out++; out == len(dst) {
				return out, nil
			}
			continue
		}
		if e&lengthBit == 0 {
			d.pos, d.bits, d.nb = pos, bits, nb
			if e&badBit != 0 {
				return out, errCorrupt
			}
			return out, nil
		}
		x := e >> 8 & 15
		length := int(e>>16) + int(bits&(1<<x-1))
		bits >>= x
		nb -= int(x)
		e = dist[bits&(1<<distRootBits-1)]
		if e&linkBit != 0 {
			e = distSub[e>>16+uint32(bits>>distRootBits)&(1<<(e&15)-1)]
		}
		bits >>= e & 15
		x = e >> 8 & 15
		distance := int(e>>16) + int(bits&(1<<x-1))
		bits >>= x
		if nb -= int(e&15 + x); nb < 0 {
			return out, io.ErrUnexpectedEOF
		}
		if e&badBit != 0 || distance > out {
			return out, errCorrupt
		}
		end := min(out+length, len(dst))
		switch {
		case distance >= length:
			copy(dst[out:end], dst[out-distance:])
		case distance == 1 && dst[out-1] == 0:
			clear(dst[out:end])
		default:
			// The source overlaps what it writes: each copy doubles the
			// span that repeats with period distance.
			for from := out - distance; out < end; {
				out += copy(dst[out:end], dst[from:out])
			}
		}
		if out = end; out == len(dst) {
			return out, nil
		}
	}
}
