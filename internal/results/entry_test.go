package results

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// TestKeyEncodeGolden pins the persisted key layout: each literal below was
// computed with the original fmt formulation ("%s\x00%s\x00%s\x00%s\x00%d"
// hashed, then "%s%s/%08d/%s"), so a store persisted by any earlier build
// keeps its entries addressable instead of orphaning them on disk.
func TestKeyEncodeGolden(t *testing.T) {
	for _, c := range []struct {
		k    Key
		want string
	}{
		{Key{Stream: "cam", Seg: 0, Op: "Diff", SF: "best-720p-1.1-100_250-slowest", CF: "good-540p-1.30-100"},
			"res/cam/00000000/621fdfee1cd6a39efe0c58501e73853b"},
		{Key{Stream: "cam", Seg: 7, Op: "NN", SF: "best-720p-1.1-100_250-slowest", CF: "best-720p-1.1-100", Span: "0123456789abcdef0123456789abcdef"},
			"res/cam/00000007/c7c8837bdfbbe56b3ee7d196d8b25779"},
		{Key{Stream: "a/b/c", Seg: 123456789, Op: "S-NN", SF: "bad-180p-1.6-75_RAW", CF: "bad-180p-1.6-75"},
			"res/a/b/c/123456789/e7f9a99f1b99ab8f2e5a5c3f68ccc731"},
		{Key{Stream: "cam", Seg: 4, End: 12, Op: "Diff", SF: "good-540p-1.1-100_RAW", CF: "worst-180p-1.30-100"},
			"res/cam/00000004/981c05f9423ef13dd7d01cd47096d7c3"},
		{Key{Stream: "cam", Seg: 4, End: 5, Op: "Diff", SF: "good-540p-1.1-100_RAW", CF: "worst-180p-1.30-100"},
			"res/cam/00000004/363f7e2609d3a2155514e2f30a0f2d03"},
		{Key{Stream: "", Seg: -3}, "res//-0000003/1ee7e9a7fcd56edfabf3712e72cc24a3"},
	} {
		if got := c.k.encode(); got != c.want {
			t.Errorf("%+v encodes to %q, want %q", c.k, got, c.want)
		}
	}
}

// FuzzDecodeEntry: adoption is the one place a persisted value is trusted,
// so for any bytes decodeEntry must not panic, must allocate no more than a
// small multiple of the input, and must accept only what encode writes —
// every accepted input re-encodes to exactly the same bytes.
func FuzzDecodeEntry(f *testing.F) {
	for seed := range 4 {
		e := testEntry(seed * 37)
		if seed%2 == 1 {
			e.Segs = []int{seed, seed + 1, seed + 2}
		}
		b := e.encode()
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		f.Add(append(bytes.Clone(b), 0))
	}
	f.Add(Entry{}.encode())
	f.Add([]byte{entryVersion, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{entryVersion, 0x80, 0x00, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		// TotalAlloc is process-wide, and the fuzzing engine allocates
		// beside the target now and then: the least of three decodes is
		// the decoder's own.
		least := uint64(math.MaxUint64)
		var e Entry
		var err error
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e, err = decodeEntry(b)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 32*uint64(len(b))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), least)
		}
		if err != nil {
			return
		}
		if re := e.encode(); !bytes.Equal(re, b) {
			t.Fatalf("accepted %x, which re-encodes to %x", b, re)
		}
	})
}
