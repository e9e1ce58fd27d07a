package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
)

// refQuantise is the divide-multiply-clamp loop quantise and ApplyQuality
// each carried before they shared a table, kept verbatim as the oracle.
func refQuantise(p []byte, q int) {
	if q <= 1 {
		return
	}
	half := q / 2
	for i, v := range p {
		nv := (int(v)/q)*q + half
		if nv > 255 {
			nv = 255
		}
		p[i] = byte(nv)
	}
}

// refAddDelta is decodeGOP's delta reconstruction as it stood before the
// eight-at-a-time rewrite, kept verbatim as the oracle.
func refAddDelta(recon, buf []byte) {
	for j := range recon {
		recon[j] += buf[j]
	}
}

// refDeadzoneDelta is EncodeWith's temporal-deadzone loop as it stood
// before deadzoneDelta, kept verbatim as the oracle.
func refDeadzoneDelta(delta, cur, prev []byte, dz byte) {
	for j := range delta {
		d := cur[j] - prev[j]
		if d+dz <= 2*dz { // |delta| <= dz under mod-256 arithmetic
			delta[j] = 0
			cur[j] = prev[j]
		} else {
			delta[j] = d
		}
	}
}

// refDecode reconstructs every frame of e the way decodeGOP did before the
// rewrite: read into buf, copy the keyframe into recon, add deltas one
// sample at a time, copy recon out.
func refDecode(t *testing.T, e *Encoded) []*frame.Frame {
	t.Helper()
	planeLen := e.planeLen()
	buf, recon := make([]byte, planeLen), make([]byte, planeLen)
	var out []*frame.Frame
	for _, g := range e.gops {
		r := flate.NewReader(bytes.NewReader(e.Data[g.off : g.off+g.length]))
		for i := int(g.start); i < int(g.start+g.frames); i++ {
			if _, err := io.ReadFull(r, buf); err != nil {
				t.Fatalf("reference decode of frame %d: %v", i, err)
			}
			if i == int(g.start) {
				copy(recon, buf)
			} else {
				refAddDelta(recon, buf)
			}
			f := frame.New(e.W, e.H)
			f.PTS = int(e.pts[i])
			n := copy(f.Y, recon)
			n += copy(f.Cb, recon[n:])
			copy(f.Cr, recon[n:])
			out = append(out, f)
		}
	}
	return out
}

// randomFrames returns n frames of noise over a slowly moving base, so that
// deltas are a mix of suppressed, small and wrapping values.
func randomFrames(rng *rand.Rand, w, h, n int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		f := frame.New(w, h)
		f.PTS = i
		for _, p := range [][]byte{f.Y, f.Cb, f.Cr} {
			for j := range p {
				p[j] = byte(j*7 + i*13 + rng.Intn(64))
			}
		}
		out[i] = f
	}
	return out
}

// TestQuantTableMatchesReference covers every step from 0 to 256 — each
// power of two takes the eight-at-a-time path, 256 its widest mask, every
// other step the table — over all 256 sample values and over planes of
// every length from 0 to 41, whose tails of 0 to 7 samples the table
// finishes.
func TestQuantTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	all := make([]byte, 256)
	for v := range all {
		all[v] = byte(v)
	}
	for q := 0; q <= 256; q++ {
		planes := [][]byte{all}
		for n := 0; n <= 41; n++ {
			p := make([]byte, n)
			rng.Read(p)
			planes = append(planes, p)
		}
		for _, p := range planes {
			got, want := bytes.Clone(p), bytes.Clone(p)
			newQuantTable(q).apply(got)
			refQuantise(want, q)
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d, %d samples: differs from the reference", q, len(p))
			}
		}
	}
}

// TestQuantiseCallersMatchReference drives the two users of the table —
// the encoder's quantise and ApplyQuality — at every quality level.
func TestQuantiseCallersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, q := range format.Qualities {
		for _, d := range [][2]int{{2, 2}, {6, 2}, {34, 18}, {136, 76}, {160, 90}} {
			f := randomFrames(rng, d[0], d[1], 1)[0]
			want := append(append(bytes.Clone(f.Y), f.Cb...), f.Cr...)
			refQuantise(want, q.QuantStep())

			got := make([]byte, len(want))
			quantise(got, f, newQuantTable(q.QuantStep()))
			if !bytes.Equal(got, want) {
				t.Fatalf("quantise %v %dx%d differs from the reference", q, d[0], d[1])
			}
			ApplyQuality([]*frame.Frame{f}, q)
			if got := append(append(bytes.Clone(f.Y), f.Cb...), f.Cr...); !bytes.Equal(got, want) {
				t.Fatalf("ApplyQuality %v %dx%d differs from the reference", q, d[0], d[1])
			}
		}
	}
}

func TestAddBytesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	lens := []int{21600, 21601, 21607, 15504}
	for n := 0; n <= 41; n++ {
		lens = append(lens, n)
	}
	// What the zero-word skip can meet: dense deltas, none, a single
	// non-zero byte in each word (at a position that moves along), and zero
	// words between dense ones.
	shapes := []struct {
		name string
		fill func(delta []byte)
	}{
		{"dense", func(delta []byte) { rng.Read(delta) }},
		{"zero", func(delta []byte) {}},
		{"one byte a word", func(delta []byte) {
			for j := 0; j < len(delta); j += 8 {
				if k := j + j/8%8; k < len(delta) {
					delta[k] = byte(1 + rng.Intn(255))
				}
			}
		}},
		{"every other word", func(delta []byte) {
			rng.Read(delta)
			for j := 0; j+8 <= len(delta); j += 16 {
				clear(delta[j : j+8])
			}
		}},
	}
	for _, shape := range shapes {
		for _, n := range lens {
			acc, delta := make([]byte, n), make([]byte, n)
			rng.Read(acc)
			shape.fill(delta)
			if n >= 16 && shape.name == "dense" { // every carry case within one word
				copy(acc, []byte{0xff, 0xff, 0x80, 0x80, 0x7f, 0x7f, 0x00, 0x01})
				copy(delta, []byte{0xff, 0x01, 0x80, 0x7f, 0x7f, 0x01, 0x00, 0xff})
			}
			want := bytes.Clone(acc)
			refAddDelta(want, delta)
			addBytes(acc, delta)
			if !bytes.Equal(acc, want) {
				t.Fatalf("%s, length %d: sum differs from the reference", shape.name, n)
			}
		}
	}
}

// TestDeadzoneDeltaMatchesReference covers every quality's deadzone over
// planes of every length from 0 to 41 — tails of 0 to 31 samples past the
// kernel and of 0 to 7 past the word loop — and of the scenes' plane
// lengths, with random deltas and deltas of exactly ±dz and ±(dz+1),
// checking both the delta and the updated cur.
func TestDeadzoneDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	lens := []int{15504, 21600, 21601}
	for n := 0; n <= 41; n++ {
		lens = append(lens, n)
	}
	for _, q := range format.Qualities {
		dz := byte(deadzone(q.QuantStep()))
		for _, n := range lens {
			cur, prev := make([]byte, n), make([]byte, n)
			rng.Read(cur)
			rng.Read(prev)
			for j := range n / 2 { // the edges: ±dz suppressed, ±(dz+1) kept
				prev[j] = cur[j] - [4]byte{dz, -dz, dz + 1, -dz - 1}[j%4]
			}
			delta, wantDelta := make([]byte, n), make([]byte, n)
			wantCur := bytes.Clone(cur)
			refDeadzoneDelta(wantDelta, wantCur, prev, dz)
			deadzoneDelta(delta, cur, prev, dz)
			if !bytes.Equal(delta, wantDelta) || !bytes.Equal(cur, wantCur) {
				t.Fatalf("deadzone %d, length %d: delta or cur differs from the reference", dz, n)
			}
		}
	}
}

// TestMatchLenMatchesReference holds matchLen, the portable loop, and
// longMatchLen, which on an AVX2 host runs vec.MatchLen before it, to a
// byte-at-a-time count at every length from 0 to 300, at every
// first-difference position and with none. Each slice is allocated to its
// length, so a compare that ends at a 32-byte boundary ends where the
// memory does.
func TestMatchLenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 300; n++ {
		for diff := 0; diff <= n; diff++ {
			a, b := make([]byte, n), make([]byte, n)
			rng.Read(a)
			copy(b, a)
			if diff < n {
				b[diff] ^= byte(1 + rng.Intn(255))
			}
			want := 0
			for want < n && a[want] == b[want] {
				want++
			}
			if got, long := matchLen(a, b, n), longMatchLen(a, b, n); got != want || long != want {
				t.Fatalf("%d bytes, first difference at %d: matchLen %d, longMatchLen %d, the reference %d", n, diff, got, long, want)
			}
		}
	}
}

// TestDecodeMatchesReference decodes containers whose plane length is and is
// not a multiple of eight (2×2 → 6, 6×2 → 18, 34×18 → 918, 160×90 → 21600)
// at every quality level and every speed step's flate level, and one
// golden-shaped segment (a single 240-frame GOP at level 9) at the
// samplings retrieval asks of it.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, speed := range format.SpeedSteps {
		for _, q := range format.Qualities {
			for _, d := range [][2]int{{2, 2}, {6, 2}, {34, 18}, {160, 90}} {
				frames := randomFrames(rng, d[0], d[1], 7)
				e, _, err := Encode(frames, Params{Quality: q, Speed: speed, KeyframeI: 3})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := e.Decode()
				if err != nil {
					t.Fatal(err)
				}
				want := refDecode(t, e)
				if len(got) != len(want) {
					t.Fatalf("%v %v %dx%d: decoded %d frames, reference %d", speed, q, d[0], d[1], len(got), len(want))
				}
				for i := range got {
					if got[i].PTS != want[i].PTS || !frame.Equal(got[i], want[i]) {
						t.Fatalf("%v %v %dx%d: frame %d differs from the reference", speed, q, d[0], d[1], i)
					}
				}
			}
		}
	}
	e := goldenSegment(t)
	want := refDecode(t, e)
	for _, s := range []format.Sampling{{Num: 1, Den: 1}, {Num: 1, Den: 6}, {Num: 1, Den: 30}} {
		pos := SelectPositions(e.PTSList(), s)
		keep := make([]bool, e.N)
		for _, i := range pos {
			keep[i] = true
		}
		got, _, err := e.DecodeSampled(func(i int) bool { return keep[i] })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pos) {
			t.Fatalf("golden at %v: decoded %d frames, want %d", s, len(got), len(pos))
		}
		for k, i := range pos {
			if got[k].PTS != want[i].PTS || !frame.Equal(got[k], want[i]) {
				t.Fatalf("golden at %v: frame %d differs from the reference", s, i)
			}
		}
	}
}
