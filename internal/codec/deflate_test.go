package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/format"
	"repro/internal/sched"
	"repro/internal/vidsim"
)

// deflateLevels are the levels SpeedStep.FlateLevel returns.
var deflateLevels = []int{1, 2, 5, 7, 9}

// mixedData strings together noise, runs of one value, runs broken by
// single bytes and copies of earlier stretches, near and far, so blocks end
// by token count and by input, some stored and some coded, with matches
// out to the window's edge.
func mixedData(rng *rand.Rand, n int) []byte {
	b := make([]byte, 0, n+1000)
	for len(b) < n {
		k := 1 + rng.Intn(1000)
		switch rng.Intn(4) {
		case 0:
			start := len(b)
			b = b[:start+k]
			rng.Read(b[start:])
		case 1:
			b = append(b, bytes.Repeat([]byte{byte(rng.Intn(3))}, 4*k)...)
		case 2:
			for range k / 8 {
				b = append(b, bytes.Repeat([]byte{0}, rng.Intn(40))...)
				b = append(b, byte(rng.Intn(256)))
			}
		default:
			if len(b) > 0 {
				from := rng.Intn(len(b))
				b = append(b, b[from:min(from+k, len(b))]...)
			}
		}
	}
	return b[:n]
}

// deflateTestData returns the inputs the compressor must code: the
// decoder's shapes, edge sizes, runs, equal symbol counts (Huffman ties),
// sizes about the window's edges, zero runs whose match phase differs at
// every chunk start and, but under -short, 1 MiB of mixed data and one real
// golden GOP.
func deflateTestData(t *testing.T) map[string][]byte {
	rng := rand.New(rand.NewSource(38))
	data := flateTestData()
	data["empty"] = []byte{}
	data["one byte"] = []byte{7}
	data["zeros"] = make([]byte, 300_000)
	// Long runs of one value, each broken by a single other byte.
	var runs []byte
	for len(runs) < 300_000 {
		v := byte(rng.Intn(4))
		runs = append(runs, bytes.Repeat([]byte{v}, 1+rng.Intn(3000))...)
		runs = append(runs, v+1+byte(rng.Intn(200)))
	}
	data["broken runs"] = runs
	// Every byte value equally often, so the Huffman code generator breaks
	// ties between equal frequencies.
	ties := bytes.Repeat([]byte{0}, 256*80)
	for i := range ties {
		ties[i] = byte(i)
	}
	rng.Shuffle(len(ties), func(i, j int) { ties[i], ties[j] = ties[j], ties[i] })
	data["ties"] = ties
	// Level 1 codes a last block of under 128 bytes as literals, and
	// flate's level 1 stores one of up to 16 bytes.
	for _, n := range []int{16, 17, 127, 128} {
		data[fmt.Sprintf("mixed %d", n)] = mixedData(rng, n)
	}
	for _, base := range []int{32 << 10, 64 << 10, 96 << 10} {
		for _, delta := range []int{-262, -261, -1, 0, 1, 261, 262} {
			data[fmt.Sprintf("mixed %d%+d", base, delta)] = mixedData(rng, base+delta)
		}
	}
	data["mixed 400 KB"] = mixedData(rng, 400_000)
	data["out of phase"] = outOfPhase()
	if testing.Short() { // the race detector's run
		return data
	}
	data["mixed 1 MiB"] = mixedData(rng, 1<<20)
	data["golden GOP"] = goldenGOP(t, vidsim.Datasets[0])
	return data
}

// outOfPhase is zero runs of 258·k+1 bytes split by single bytes, so that
// parses started at different positions match out of phase.
func outOfPhase() []byte {
	var b []byte
	for k := 1; len(b) < 60_000; k = k%9 + 1 {
		b = append(b, make([]byte, 258*k+1)...)
		b = append(b, byte(k))
	}
	return b
}

// goldenGOP returns the staged bytes of scene's golden segment: 240 frames
// of 160×90 at the best quality, one GOP.
func goldenGOP(t testing.TB, scene vidsim.Scene) []byte {
	t.Helper()
	frames := vidsim.NewSource(scene).Clip(0, 240)
	e, _, err := Encode(frames, Params{Quality: format.QBest, Speed: format.SpeedFastest, KeyframeI: 250})
	if err != nil {
		t.Fatal(err)
	}
	gop := make([]byte, e.N*e.planeLen())
	if _, err := inflate(gop, e.Data); err != nil {
		t.Fatal(err)
	}
	return gop
}

// checkDeflate compresses data at level in chunks of chunk bytes, alone and
// with each of helpers (testHelpers), and checks that every run gives one
// stream, which inflate and compress/flate's reader both decode to data.
// It returns that stream.
func checkDeflate(t testing.TB, c *compressor, data []byte, level, chunk int, helpers []int) []byte {
	t.Helper()
	want := c.compress(nil, data, level, nil, chunk)
	for _, k := range helpers {
		if got := c.compress(nil, data, level, testHelpers(k), chunk); !bytes.Equal(got, want) {
			t.Fatalf("level %d, %d bytes, %d-byte chunks: %d bytes with helpers %d differ from %d alone",
				level, len(data), chunk, len(got), k, len(want))
		}
	}
	got := make([]byte, len(data))
	if n, err := inflate(got, want); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("level %d, %d bytes, %d-byte chunks: inflate gave %d bytes (%v), not the input", level, len(data), chunk, n, err)
	}
	if got, err := io.ReadAll(flate.NewReader(bytes.NewReader(want))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("level %d, %d bytes, %d-byte chunks: flate's reader gave %d bytes (%v), not the input", level, len(data), chunk, len(got), err)
	}
	return want
}

// checkSize fails if got, a stream of ours, is more than 0.5 % larger than
// flate's writer's stream of the same input at the same level.
func checkSize(t testing.TB, name string, data, got []byte, level int) {
	t.Helper()
	if want := deflate(t, data, level); 200*len(got) > 201*len(want) {
		t.Errorf("%s (%d bytes), level %d: %d bytes, over 0.5 %% above flate's %d", name, len(data), level, len(got), len(want))
	}
}

// TestDeflateMatchesFlate holds compress to compress/flate at every level
// the codec uses: a stream both decoders read back to the input, the same
// bytes alone, inline, with one helper and with three, and a size at most
// 0.5 % above flate's writer's. The lazy levels are split again at chunks
// down to 1 KiB. The pooled compressor runs every input in turn, so no
// state may leak from one stream into the next. Under -short, the race
// detector's run, only the helpers that run concurrently.
func TestDeflateMatchesFlate(t *testing.T) {
	helpers := []int{0, -1, 1, 3}
	if testing.Short() {
		helpers = []int{1, 3}
	}
	var c compressor
	for name, data := range deflateTestData(t) {
		for _, level := range deflateLevels {
			checkSize(t, name, data, checkDeflate(t, &c, data, level, splitChunk, helpers), level)
			for chunk := 1 << 10; level >= 5 && chunk < splitChunk; chunk <<= 4 {
				if len(data) >= 2*chunk && len(data) <= 64*chunk {
					checkDeflate(t, &c, data, level, chunk, helpers)
				}
			}
		}
	}
}

// TestDeflateSizeOnGoldenGOPs holds the compressor's size to 0.5 % above
// compress/flate's writer's on the golden GOPs of four scenes, at the
// levels that split it.
func TestDeflateSizeOnGoldenGOPs(t *testing.T) {
	if testing.Short() {
		t.Skip("four 5 MB GOPs at three levels")
	}
	var c compressor
	for _, name := range []string{"jackson", "tucson", "park", "airport"} {
		scene, err := vidsim.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gop := goldenGOP(t, scene)
		for _, level := range []int{5, 7, 9} {
			checkSize(t, name, gop, c.compress(nil, gop, level, nil, splitChunk), level)
		}
	}
}

// TestSplitParsesEachChunkOnce: however many helpers take chunks, every
// position of the input is parsed once, by the owner or one helper, and
// only the window before a chunk is hashed besides, to prime its chains.
func TestSplitParsesEachChunkOnce(t *testing.T) {
	const chunk = 16 << 10
	for name, data := range map[string][]byte{"out of phase": outOfPhase(), "zeros": make([]byte, 300_000)} {
		chunks := (len(data) + chunk - 1) / chunk
		for _, level := range []int{5, 7, 9} {
			for _, k := range []int{1, 3} {
				var c compressor
				c.compress(nil, data, level, testHelpers(k), chunk)
				if got := c.split.parsed.Load(); got != int64(len(data)) {
					t.Errorf("%s, level %d, helpers %d: %d positions parsed, want the input's %d", name, level, k, got, len(data))
				}
				if got := c.split.primed.Load(); got > int64((chunks-1)*windowSize) {
					t.Errorf("%s, level %d, helpers %d: %d positions primed, over a window for each of %d chunks", name, level, k, got, chunks-1)
				}
			}
		}
	}
}

// testHelpers returns k helpers of their own: none for k = 0 (the owner
// parses every chunk), and for k = -1 one that runs at once on the owner,
// so that it parses every chunk but the owner's first, back to front. For
// k = -2 it is nil.
func testHelpers(k int) Helpers {
	switch {
	case k == -2:
		return nil
	case k < 1:
		return stubHelpers{inline: k == -1}
	}
	return sched.NewPool(k).Batch()
}

// stubHelpers runs each helper at once on the caller, or none.
type stubHelpers struct{ inline bool }

func (s stubHelpers) TryGo(fn func()) bool {
	if s.inline {
		fn()
	}
	return s.inline
}

func (stubHelpers) Wait() {}

// TestDeflateMatchesFlateLarge codes a 17 MiB input, past the 16 MiB at
// which compress/flate rebases its hash chains, with TestDeflateMatchesFlate's
// three checks.
func TestDeflateMatchesFlateLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("17 MiB at two levels")
	}
	data := mixedData(rand.New(rand.NewSource(39)), 17<<20)
	var c compressor
	for _, level := range []int{2, 5} {
		checkSize(t, "mixed 17 MiB", data, checkDeflate(t, &c, data, level, splitChunk, []int{0, -1, 1, 3}), level)
	}
}

// FuzzDeflate holds compress to compress/flate's reader on any bytes,
// repeated up to 128 times (to at most 128 KiB) so that streams also cross
// block and window sizes, at a level the input picks, parsed in chunks of 1
// to 8 KiB, alone and among the helpers the input picks. It leaves out the
// size bound, which a fuzzer can shrink an input to break by one byte.
func FuzzDeflate(f *testing.F) {
	for name, data := range flateTestData() {
		f.Add(data[:3000], uint8(len(name)), uint8(3), uint8(len(name)))
	}
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0}, uint8(4), uint8(127), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, level, reps, split uint8) {
		src := bytes.Repeat(data, min(1+int(reps)%128, max(1, 128<<10/max(len(data), 1))))
		l := deflateLevels[int(level)%len(deflateLevels)]
		c := getCompressor()
		defer putCompressor(c)
		checkDeflate(t, c, src, l, 1<<(10+split%4), []int{int(split/4)%6 - 2})
	})
}

// refFindMatch is findMatch as it stood before the walk jumped within runs:
// it visits every position of the chain, skipping only where a run covers
// a failing candidate through its tail, kept verbatim as the oracle.
func (d *compressor) refFindMatch(pos, prevHead, prevLength, lookahead, minIndex int) (length, offset int, ok bool) {
	minMatchLook := min(maxMatchLength, lookahead)
	win := d.src[0 : pos+minMatchLook]
	nice := min(d.nice, len(win)-pos)
	tries := d.chain
	length = prevLength
	if length >= d.good {
		tries >>= 2
	}
	// A candidate that beats length matches the four bytes that end at
	// pos+length, and where runs are tracked, the run of one value those
	// end in starts as far into the candidate as into pos (or before both).
	tail := binary.LittleEndian.Uint32(win[pos+length-3:])
	var run int
	if d.runs {
		run = max(int(d.runStart[(pos+length)&runMask])-pos, 0)
	}
	wPos := win[pos:]
	for i := prevHead; tries > 0; tries-- {
		match := binary.LittleEndian.Uint32(win[i+length-3:]) == tail
		if d.runs {
			r := int(d.runStart[(i+length)&runMask])
			match = match && max(r-i, 0) == run
			if !match && r < i {
				// One value fills src[i-k..i+length] for some k > 0, so every
				// position down to i-k fails as i did. Every position is
				// hashed, so the chain through them is i-1, i-2, ..., i-k: go
				// to i-k (or minIndex) at once, spending the tries the walk
				// would.
				j := max(r, minIndex)
				if tries -= i - j; tries <= 0 {
					break
				}
				i = j
			}
		}
		if match {
			n := matchLen(win[i:], wPos, minMatchLook)
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
		}
		if i == minIndex {
			// Its link is gone or below minIndex: pos-windowSize shares
			// pos's hashPrev entry.
			break
		}
		if i = int(d.hashPrev[i&windowMask]) - 1; i < minIndex {
			break
		}
	}
	return
}

// refFillRuns is fillRuns as it stood before it filled a run at a time:
// it sets runs[p&runMask] for p in [from, end), one byte at a time, kept
// verbatim as the oracle.
func refFillRuns(runs *[2 * windowSize]int32, src []byte, runFrom, from, end int) {
	for p := from; p < end; p++ {
		r := int32(p)
		if p > runFrom && src[p] == src[p-1] {
			r = runs[(p-1)&runMask]
		}
		runs[p&runMask] = r
	}
}

// checkLinks fails unless s, which linked positions [from, to) with
// insertRange, holds the links and chain heads of d, which linked the same
// positions with insert, one at a time.
func checkLinks(t testing.TB, name string, d, s *compressor, from, to int) {
	t.Helper()
	for p := from; p < to; p++ {
		h := hash4(d.src[p:])
		if got, want := s.hashPrev[p&windowMask], d.hashPrev[p&windowMask]; got != want || s.hashHead[h] != d.hashHead[h] {
			t.Fatalf("%s: insertRange(%d, %d) left %d linked to %d, head %d; insert, to %d, head %d",
				name, from, to, p, int(got)-1, int(s.hashHead[h])-1, int(want)-1, int(d.hashHead[h])-1)
		}
	}
}

// walkFindMatch drives a level-9 compressor over src position by position
// from start, its chains and runs primed from from as a helper primes them,
// and at every position holds findMatch to refFindMatch at bar 3, at the
// length the last position's walk found and at 32, where the walk is
// quartered. Its chains are linked one insert at a time, and each run
// table fillRuns extends is held to refFillRuns'. A second compressor
// links the same positions as the parse does, with prime and then one
// insertRange per parse step, over the match the walk found there or one
// position; after each step its links and heads are held to the first's.
func walkFindMatch(t testing.TB, name string, src []byte, from, start int) {
	t.Helper()
	d, s := new(compressor), new(compressor)
	d.reset(src, 9)
	s.reset(src, 9)
	maxInsertIndex := len(src) - (minMatchLength - 1)
	for p := from; p < min(start, maxInsertIndex); p++ {
		d.insert(p)
	}
	s.prime(from, start)
	checkLinks(t, name, d, s, from, min(start, maxInsertIndex))
	d.runFrom, d.runEnd = from, from
	var runs [2 * windowSize]int32
	prev, step, next := 0, start, start // s has linked up to next, its last step from step
	for pos := start; pos < len(src); pos++ {
		d.index = pos
		if pos >= d.runNext {
			end := d.runEnd
			d.fillRuns()
			refFillRuns(&runs, src, from, end, d.runEnd)
			for p := end; p < d.runEnd; p++ {
				if got, want := d.runStart[p&runMask], runs[p&runMask]; got != want {
					t.Fatalf("%s: fillRuns from %d gave %d a run start of %d, byte by byte %d", name, end, p, got, want)
				}
			}
		}
		if pos >= maxInsertIndex {
			break
		}
		if pos == next {
			checkLinks(t, name, d, s, step, next)
		}
		head := d.insert(pos)
		minIndex := max(pos-windowSize, 0)
		lookahead := len(src) - pos
		if head < minIndex {
			prev = 0
		}
		for _, bar := range []int{minMatchLength - 1, prev, d.good} {
			if head < minIndex || bar < minMatchLength-1 || bar >= min(maxMatchLength, lookahead) {
				continue
			}
			n, off, ok := d.findMatch(pos, head, bar, lookahead, minIndex)
			wn, woff, wok := d.refFindMatch(pos, head, bar, lookahead, minIndex)
			if n != wn || off != woff || ok != wok {
				t.Fatalf("%s at %d (bar %d): findMatch gave (%d, %d, %t), the reference (%d, %d, %t)", name, pos, bar, n, off, ok, wn, woff, wok)
			}
			if bar == minMatchLength-1 {
				prev = 0
				if ok {
					prev = n
				}
			}
		}
		if pos == next {
			step, next = pos, min(pos+max(prev, 1), maxInsertIndex)
			s.insertRange(step, next)
		}
	}
	checkLinks(t, name, d, s, step, next)
}

// brokenRuns is runs of zeros of every length from 0 to 300, each ended by
// a single other byte, so that the target's run and the candidates' meet at
// every difference of length.
func brokenRuns() []byte {
	var b []byte
	for k := 0; k <= 300; k++ {
		b = append(b, make([]byte, k)...)
		b = append(b, byte(1+k%7))
	}
	return b
}

// TestFindMatchMatchesReference holds the chain walk to refFindMatch on the
// last 8 KiB of each compressor test input, its chains primed from a window
// before; on runs broken at every spacing; on a stretch of two scenes'
// golden GOPs; and on chains primed as a helper's are. It is skipped under
// -short: the walk runs on one goroutine, and the race detector would take
// minutes over what the oracle costs.
func TestFindMatchMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference walk over every position")
	}
	for name, src := range deflateTestData(t) {
		start := max(len(src)-8<<10, 0)
		walkFindMatch(t, name, src, max(start-windowSize, 0), start)
	}
	walkFindMatch(t, "broken runs at every spacing", brokenRuns(), 0, 0)
	walkFindMatch(t, "out of phase", outOfPhase(), 0, 0)
	for _, name := range []string{"jackson", "park"} {
		scene, err := vidsim.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gop := goldenGOP(t, scene)
		start := len(gop) / 2
		walkFindMatch(t, name, gop[:start+64<<10], start-windowSize, start)
	}
	// A helper's chains and runs start a window before its chunk, inside a
	// run.
	runs := brokenRuns()
	src := append(bytes.Repeat(runs, 3), outOfPhase()...)
	walkFindMatch(t, "helper-primed", src, len(runs)/2, len(runs)/2+windowSize)
}

// FuzzFindMatch runs TestFindMatchMatchesReference's comparison on any
// bytes, repeated up to 64 times, from a start and a priming the input
// picks.
func FuzzFindMatch(f *testing.F) {
	f.Add(brokenRuns()[:2000], uint8(3), uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 1}, uint8(63), uint16(100))
	f.Add([]byte("abcabcabcabc"), uint8(9), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, reps uint8, skip uint16) {
		src := bytes.Repeat(data, min(1+int(reps)%64, max(1, 64<<10/max(len(data), 1))))
		start := min(int(skip), len(src))
		walkFindMatch(t, "fuzz", src, max(start-windowSize, 0)/2, start)
	})
}
