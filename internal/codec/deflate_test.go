package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// deflateLevels are the levels SpeedStep.FlateLevel returns.
var deflateLevels = []int{1, 2, 5, 7, 9}

// mixedData strings together noise, runs of one value, runs broken by
// single bytes and copies of earlier stretches, near and far, so blocks end
// by token count and by input, some stored and some coded, across window
// slides.
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

// deflateTestData returns the inputs the compressor must code as
// compress/flate's writer does: the decoder's shapes, edge sizes, runs,
// equal symbol counts (Huffman ties), sizes about the window's slide points
// and, but under -short, 1 MiB of mixed data and one real golden GOP.
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
	// Level 1 stores a last block of up to 16 bytes and codes one of up to
	// 127 as literals.
	for _, n := range []int{16, 17, 127, 128} {
		data[fmt.Sprintf("mixed %d", n)] = mixedData(rng, n)
	}
	for _, base := range []int{32 << 10, 64 << 10, 96 << 10} {
		for _, delta := range []int{-262, -261, -1, 0, 1, 261, 262} {
			data[fmt.Sprintf("mixed %d%+d", base, delta)] = mixedData(rng, base+delta)
		}
	}
	// Blocks that span a window slide, so that some start before it.
	data["mixed 400 KB"] = mixedData(rng, 400_000)
	if testing.Short() { // the race detector's run
		return data
	}
	data["mixed 1 MiB"] = mixedData(rng, 1<<20)
	gop := make([]byte, 240*(160*90+2*80*45))
	if _, err := inflate(gop, goldenSegment(t).Data); err != nil {
		t.Fatal(err)
	}
	data["golden GOP"] = gop
	return data
}

// TestDeflateMatchesFlate holds compress to compress/flate's writer, byte
// for byte, at every level the codec uses. The pooled compressor runs every
// input in turn, so no state may leak from one stream into the next.
func TestDeflateMatchesFlate(t *testing.T) {
	var c compressor
	for name, data := range deflateTestData(t) {
		for _, level := range deflateLevels {
			if got, want := c.compress(nil, data, level), deflate(t, data, level); !bytes.Equal(got, want) {
				t.Errorf("%s (%d bytes), level %d: %d bytes differ from flate's %d", name, len(data), level, len(got), len(want))
			}
		}
	}
	// A split parse gives the same bytes, at chunks down to 1 KiB, with no
	// helper, one, three, and one run at once on the owner. Under -short,
	// the race detector's run, only the helpers that run concurrently, at
	// levels 5 and 9. Zero runs of 258·k+1 bytes split by single bytes set
	// parses out of phase, so some may never meet.
	splitLevels, splitHelpers := []int{5, 7, 9}, []int{0, 1, 3, -1}
	if testing.Short() {
		splitLevels, splitHelpers = []int{5, 9}, []int{1, 3}
	}
	inputs := deflateTestData(t)
	var phase []byte
	for k := 1; len(phase) < 60_000; k = k%9 + 1 {
		phase = append(phase, make([]byte, 258*k+1)...)
		phase = append(phase, byte(k))
	}
	inputs["out of phase"] = phase
	for name, data := range inputs {
		for _, level := range splitLevels {
			want := deflate(t, data, level)
			for chunk := 1 << 10; chunk <= 1<<18; chunk <<= 4 {
				if len(data) < 2*chunk || len(data) > 64*chunk {
					continue
				}
				for _, k := range splitHelpers {
					if got := c.compressSplit(nil, data, level, testHelpers(k), chunk); !bytes.Equal(got, want) {
						t.Errorf("%s (%d bytes), level %d, %d-byte chunks, helpers %d: %d bytes differ from flate's %d",
							name, len(data), level, chunk, k, len(got), len(want))
					}
				}
			}
		}
	}
}

// testHelpers returns k helpers of their own: none for k = 0 (the owner
// parses every chunk, stopping at each), and for k = -1 one that runs at
// once on the owner, so that helpers parse every chunk but the owner's
// first, back to front, before the owner meets them. For k = -2 it is nil.
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
// which compress/flate rebases its hash chains.
func TestDeflateMatchesFlateLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("17 MiB at two levels")
	}
	data := mixedData(rand.New(rand.NewSource(39)), 17<<20)
	var c compressor
	for _, level := range []int{2, 5} {
		if !bytes.Equal(c.compress(nil, data, level), deflate(t, data, level)) {
			t.Errorf("level %d: bytes differ from flate's", level)
		}
	}
}

// FuzzDeflate holds compress to compress/flate's writer on any bytes,
// repeated up to 128 times (to at most 128 KiB) so that streams also cross
// block and window sizes, at a level the input picks, parsed whole or split
// into chunks of 1 to 8 KiB among the helpers the input picks.
func FuzzDeflate(f *testing.F) {
	for name, data := range flateTestData() {
		f.Add(data[:3000], uint8(len(name)), uint8(3), uint8(len(name)))
	}
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0}, uint8(4), uint8(127), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, level, reps, split uint8) {
		src := bytes.Repeat(data, min(1+int(reps)%128, max(1, 128<<10/max(len(data), 1))))
		l := deflateLevels[int(level)%len(deflateLevels)]
		chunk, k := 1<<(10+split%4), int(split/4)%6-2
		c := getCompressor()
		defer putCompressor(c)
		if got, want := c.compressSplit(nil, src, l, testHelpers(k), chunk), deflate(t, src, l); !bytes.Equal(got, want) {
			t.Fatalf("level %d, %d bytes, %d-byte chunks, helpers %d: %d bytes differ from flate's %d", l, len(src), chunk, k, len(got), len(want))
		}
	})
}
