package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// flateTestData returns the shapes of input the decoder must meet: noise
// (stored and literal-heavy blocks), sparse bytes (long zero runs, as in
// GOP deltas), a four-symbol alphabet (short codes) and near repeats (long
// matches at every distance).
func flateTestData() map[string][]byte {
	rng := rand.New(rand.NewSource(37))
	const n = 100_000
	noise := make([]byte, n)
	rng.Read(noise)
	sparse := make([]byte, n)
	for i := range sparse {
		if rng.Intn(40) == 0 {
			sparse[i] = byte(rng.Intn(256))
		}
	}
	alphabet := make([]byte, n)
	for i := range alphabet {
		alphabet[i] = "acgt"[rng.Intn(4)]
	}
	repeats := make([]byte, 0, n)
	base := make([]byte, 3000)
	rng.Read(base)
	for len(repeats) < n {
		base[rng.Intn(len(base))] = byte(rng.Intn(256))
		repeats = append(repeats, base[:rng.Intn(len(base))]...)
	}
	return map[string][]byte{"noise": noise, "sparse": sparse, "alphabet": alphabet, "repeats": repeats[:n]}
}

func deflate(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkInflate decodes src to a horizon of h bytes with inflate and with
// compress/flate's reader. Where flate fills the horizon, inflate must give
// the same bytes. Flate asks for the end-of-block code's length of input
// before every literal/length symbol, so on a truncated stream it may stop
// a few bits before inflate does: where only inflate fills the horizon,
// flate must have failed with io.ErrUnexpectedEOF on a prefix of inflate's
// bytes. It reports whether inflate filled the horizon.
func checkInflate(t *testing.T, src []byte, h int) bool {
	t.Helper()
	want := make([]byte, h)
	wn, werr := io.ReadFull(flate.NewReader(bytes.NewReader(src)), want)
	got := make([]byte, h)
	n, err := inflate(got, src)
	if n < 0 || n > h || (err == nil) != (n == h) {
		t.Fatalf("horizon %d: inflate returned %d bytes and error %v", h, n, err)
	}
	switch {
	case werr == nil && err != nil:
		t.Fatalf("horizon %d: flate filled it, inflate failed after %d bytes: %v", h, n, err)
	case werr == nil && !bytes.Equal(got, want):
		t.Fatalf("horizon %d: inflate's bytes differ from flate's", h)
	case werr != nil && err == nil:
		if !errors.Is(werr, io.ErrUnexpectedEOF) {
			t.Fatalf("horizon %d: inflate filled it, flate failed with %v", h, werr)
		}
		if !bytes.Equal(got[:wn], want[:wn]) {
			t.Fatalf("horizon %d: flate's %d bytes are not a prefix of inflate's", h, wn)
		}
	}
	return err == nil
}

// TestInflateMatchesFlate decodes every data shape compressed at every
// kind of flate block — stored (level 0), deflateFast (1), the lazy
// matchers (2 to 9) and Huffman-only — to the full length, half, a third
// and one byte, and the same streams cut at half their length.
func TestInflateMatchesFlate(t *testing.T) {
	for name, data := range flateTestData() {
		for _, level := range []int{0, 1, 2, 5, 7, 9, flate.HuffmanOnly} {
			src := deflate(t, data, level)
			for _, h := range []int{len(data), len(data) / 2, len(data) / 3, 1} {
				if !checkInflate(t, src, h) {
					t.Fatalf("%s, level %d, horizon %d: inflate failed on a whole stream", name, level, h)
				}
			}
			got := make([]byte, len(data))
			if _, err := inflate(got, src); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s, level %d: does not round-trip (%v)", name, level, err)
			}
			cut := src[:len(src)/2]
			for _, h := range []int{len(data), len(data) / 2, len(data) / 3, 1} {
				checkInflate(t, cut, h)
			}
			if checkInflate(t, cut, len(data)) {
				t.Fatalf("%s, level %d: inflate filled the whole length from half the stream", name, level)
			}
		}
	}
}

// bitStream packs fields into bytes least significant bit first, as
// DEFLATE does.
type bitStream struct {
	b []byte
	n uint
}

func (s *bitStream) put(v uint64, n uint) *bitStream {
	for i := uint(0); i < n; i++ {
		if s.n%8 == 0 {
			s.b = append(s.b, 0)
		}
		s.b[len(s.b)-1] |= byte(v>>i&1) << (s.n % 8)
		s.n++
	}
	return s
}

// code puts a Huffman code, which DEFLATE sends most significant bit first.
func (s *bitStream) code(c uint64, n uint) *bitStream {
	for i := n; i > 0; i-- {
		s.put(c>>(i-1)&1, 1)
	}
	return s
}

// dynamic starts a final dynamic block whose code-length code gives the
// symbols in codeOrder (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13,
// 2, 14, 1, 15) the lengths l, at least four of them.
func dynamic(hlit, hdist uint64, l ...uint64) *bitStream {
	s := new(bitStream).put(1, 1).put(2, 2).put(hlit, 5).put(hdist, 5).put(uint64(len(l)-4), 4)
	for _, n := range l {
		s.put(n, 3)
	}
	return s
}

func errKind(err error) string {
	var c flate.CorruptInputError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &c) || errors.Is(err, errCorrupt):
		return "corrupt"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	}
	return err.Error()
}

// TestInflateRejectsMalformed: each malformed stream fails as
// compress/flate's reader fails on it.
func TestInflateRejectsMalformed(t *testing.T) {
	// Fixed-code block: literal 'a' (0x30+0x61, eight bits), then the
	// length-3 symbol 257 (0000001).
	fixedA3 := func() *bitStream { return new(bitStream).put(1, 1).put(1, 2).code(0x91, 8).code(1, 7) }
	for _, c := range []struct {
		name string
		src  []byte
		want string
	}{
		{"empty", nil, "eof"},
		{"a stream after the final block", append(deflate(t, []byte("ab"), 1), deflate(t, bytes.Repeat([]byte("cd"), 10), 1)...), "eof"},
		{"reserved block type", new(bitStream).put(1, 1).put(3, 2).b, "corrupt"},
		{"stored LEN is not ^NLEN", []byte{0x01, 0x05, 0x00, 0xfa, 0xfe, 'a', 'b', 'c', 'd', 'e'}, "corrupt"},
		{"stored block cut short", []byte{0x01, 0x05, 0x00, 0xfa, 0xff, 'a'}, "eof"},
		{"fixed literal/length symbol 286", new(bitStream).put(1, 1).put(1, 2).code(0xc6, 8).put(0, 16).b, "corrupt"},
		{"fixed distance symbol 30", fixedA3().code(30, 5).put(0, 16).b, "corrupt"},
		{"fixed distance symbol 31", fixedA3().code(31, 5).put(0, 16).b, "corrupt"},
		{"distance before the output", fixedA3().code(1, 5).put(0, 16).b, "corrupt"},
		{"HLIT over 286", dynamic(30, 0, 1, 0, 0, 1).put(0, 16).b, "corrupt"},
		{"HDIST over 30", dynamic(0, 30, 1, 0, 0, 1).put(0, 16).b, "corrupt"},
		{"over-subscribed code", dynamic(0, 0, 1, 1, 1, 0).put(0, 16).b, "corrupt"},
		{"incomplete code-length code", dynamic(0, 0, 1, 2, 0, 0).put(0, 16).b, "corrupt"},
		// Code-length symbols 0 → 00, 1 → 01, 2 → 10 and 18 → 11 give
		// literal 'a' a one-bit code and the end of block a two-bit one,
		// and no code 11: two 'a's and the end of block decode only if an
		// incomplete code passes.
		{"incomplete literal/length code", dynamic(0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2).
			code(3, 2).put(97-11, 7).code(1, 2).code(3, 2).put(138-11, 7).code(3, 2).put(20-11, 7).code(2, 2).code(0, 2).
			code(0, 1).code(0, 1).code(2, 2).b, "corrupt"},
		// Code-length symbols 0 → 0 and 16 → 1.
		{"repeat as the first length", dynamic(0, 0, 1, 0, 0, 1).code(1, 1).put(0, 16).b, "corrupt"},
		// Symbols 0 → 0 and 18 → 1: two runs of 138 zeros overrun 258 lengths.
		{"repeat past the table", dynamic(0, 0, 0, 0, 1, 1).code(1, 1).put(127, 7).code(1, 1).put(127, 7).put(0, 16).b, "corrupt"},
		// Only symbol 0 has a code: the other one-bit code is no symbol.
		{"single one-bit code read at its gap", dynamic(0, 0, 0, 0, 0, 1).code(1, 1).put(0, 16).b, "corrupt"},
		{"single one-bit code, stream ends", dynamic(0, 0, 0, 0, 0, 1).b, "eof"},
	} {
		dst := make([]byte, 16)
		_, ferr := io.ReadFull(flate.NewReader(bytes.NewReader(c.src)), dst)
		_, err := inflate(dst, c.src)
		if errKind(ferr) != c.want || errKind(err) != c.want {
			t.Errorf("%s: inflate fails with %v, flate with %v, want %s", c.name, err, ferr, c.want)
		}
	}
}

// FuzzInflate holds inflate to compress/flate's reader on any bytes at any
// horizon, by checkInflate's rule.
func FuzzInflate(f *testing.F) {
	for _, data := range flateTestData() {
		for _, level := range []int{0, 1, 5, 9, flate.HuffmanOnly} {
			src := deflate(f, data[:2000], level)
			f.Add(src, uint32(2000))
			f.Add(src[:len(src)/2], uint32(1000))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, horizon uint32) {
		checkInflate(t, src, int(horizon%(1<<18)))
	})
}
