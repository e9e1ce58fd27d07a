package vec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// Each kernel is checked here against the plain loop its contract states;
// the packages that call them check the kernels again inside their own
// oracles (frame, codec and ops kernels_test.go).

func needAVX2(t *testing.T) {
	t.Helper()
	if !AVX2 {
		t.Skip("no AVX2 kernels on this build or host")
	}
}

func TestBlurPlane(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(1))
	hs := make([]byte, 6*70) // one ring for every width, as a pass reuses it
	for w := 18; w <= 70; w++ {
		for h := 3; h <= 9; h++ {
			// want is only written inside the border, so comparing the
			// whole buffer also checks that the kernel leaves the border
			// rows and columns, and 32 bytes past the plane, as they were.
			got := make([]byte, w*h+32)
			rng.Read(got)
			want := bytes.Clone(got)
			for pass := 1; pass <= 10; pass++ {
				BlurPlane(got[:w*h], w, h, hs)
				src := bytes.Clone(want)
				for y := 1; y < h-1; y++ {
					for x := 1; x < w-1; x++ {
						sum := 0
						for _, i := range [...]int{-w - 1, -w, -w + 1, -1, 0, 1, w - 1, w, w + 1} {
							sum += int(src[y*w+x+i])
						}
						want[y*w+x] = byte(sum / 9)
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%dx%d: plane differs from the plain loop after pass %d", w, h, pass)
				}
			}
		}
	}
}

func TestColumnSums(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{16, 17, 31, 32, 33, 120} {
		for _, rows := range []int{1, 2, 3, 4, 256, 257} {
			stride := w + rng.Intn(3)
			src := make([]byte, (rows-1)*stride+w)
			if rows == 257 {
				for i := range src {
					src[i] = 255
				}
			} else {
				rng.Read(src)
			}
			got, want := make([]uint16, w), make([]uint16, w)
			ColumnSums(got, src, stride, rows)
			for x := range want {
				for r := range rows {
					want[x] += uint16(src[r*stride+x])
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("width %d, %d rows, stride %d: sums differ from the plain loop", w, rows, stride)
			}
		}
	}
}

func TestWindowSums(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 17, 31, 40, 113} {
		for _, k := range []int{1, 2, 3, 4, 17} {
			cols := make([]uint16, n+k-1)
			for i := range cols {
				cols[i] = uint16(rng.Intn(1 << 16))
			}
			got, want := make([]uint16, n), make([]uint16, n)
			WindowSums(got, cols, k)
			for x := range want {
				for j := range k {
					want[x] += cols[x+j]
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d windows of %d: sums differ from the plain loop", n, k)
			}
		}
	}
}

func TestBoxMeans(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 9, 15, 16, 40} {
		// Sums of three samples, and of two more for a wide box, whose
		// means fit a byte.
		const cols = 64
		runs, extra := make([]uint16, cols+1), make([]uint16, cols+1)
		for i := range cols {
			runs[i], extra[i] = uint16(rng.Intn(3*255+1)), uint16(rng.Intn(2*255+1))
		}
		starts, wides := make([]int32, n), make([]int32, n)
		for i := range starts {
			starts[i], wides[i] = int32(rng.Intn(cols)), -int32(rng.Intn(2))
		}
		narrow, wide := uint32(1<<31/3+1), uint32(1<<31/5+1)
		got, want := make([]byte, n), make([]byte, n)
		BoxMeans(got, runs, extra, starts, wides, narrow, wide)
		for i, x := range starts {
			s, r := uint64(runs[x]), uint64(narrow)
			if wides[i] != 0 {
				s, r = s+uint64(extra[x]), uint64(wide)
			}
			want[i] = byte(s * r >> 31)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d boxes: means differ from the plain loop", n)
		}
	}
}

func TestAddBytes(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 32, 64, 96, 21600 &^ 31} {
		acc, delta := make([]byte, n), make([]byte, n+5)
		rng.Read(acc)
		rng.Read(delta)
		for j := 32; j+32 <= n; j += 96 { // zero blocks, which the kernel skips
			clear(delta[j : j+32])
		}
		want := bytes.Clone(acc)
		for j := range want {
			want[j] += delta[j]
		}
		AddBytes(acc, delta)
		if !bytes.Equal(acc, want) {
			t.Fatalf("length %d: sum differs from the plain loop", n)
		}
	}
}

func TestMaskOr(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(5))
	for _, m := range [][2]byte{{0xfc, 2}, {0xf0, 8}, {0, 128}, {0xff, 0}} {
		p := make([]byte, 256+64)
		rng.Read(p)
		want := bytes.Clone(p)
		for i := range want {
			want[i] = want[i]&m[0] | m[1]
		}
		MaskOr(p, m[0], m[1])
		if !bytes.Equal(p, want) {
			t.Fatalf("keep %#x set %#x: differs from the plain loop", m[0], m[1])
		}
	}
}

func TestDeadzoneDelta(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(7))
	for _, dz := range []byte{0, 4, 16, 48, 64, 127, 128, 200} {
		for _, n := range []int{0, 32, 64, 96, 21600 &^ 31} {
			cur, prev := make([]byte, n), make([]byte, n+3)
			rng.Read(cur)
			rng.Read(prev)
			for j := 0; j < n; j += 3 { // deltas about the deadzone's edges
				prev[j] = cur[j] - dz + byte(rng.Intn(3)) - 1
			}
			want, wantCur := make([]byte, n), bytes.Clone(cur)
			for j := range want {
				if d := cur[j] - prev[j]; d+dz <= 2*dz {
					wantCur[j] = prev[j]
				} else {
					want[j] = d
				}
			}
			got := make([]byte, n)
			DeadzoneDelta(got, cur, prev, dz)
			if !bytes.Equal(got, want) || !bytes.Equal(cur, wantCur) {
				t.Fatalf("dz %d, length %d: delta or cur differs from the plain loop", dz, n)
			}
		}
	}
}
