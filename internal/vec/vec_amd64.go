//go:build amd64 && !purego

// Package vec holds the store's AVX2 pixel kernels and the one CPU check
// that decides whether they run. Callers test AVX2 and otherwise take their
// own portable loop; every kernel writes the bytes that loop writes. The
// kernels check no bounds: each states what its slices must hold.
package vec

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches. It is set once, at init.
var AVX2 = hasAVX2()

// BlurPlane replaces every interior sample of the w×h plane y with the
// mean of its 3×3 box, as it stood before the call, rounded down; border rows
// and columns are left as they are. w ≥ 18, h ≥ 3, len(y) ≥ w·h, and hs is
// scratch for three rows of w 16-bit sums: at least 6·w bytes.
//
//go:noescape
func BlurPlane(y []byte, w, h int, hs []byte)

// ColumnSums sets dst[x] to the sum of src[r·stride+x] over r < rows, for
// every x < len(dst). len(dst) ≥ 16, 1 ≤ rows ≤ 257 (so a sum of 255s fits a
// 16-bit lane) and src holds (rows-1)·stride + len(dst) bytes.
//
//go:noescape
func ColumnSums(dst []uint16, src []byte, stride, rows int)

// WindowSums sets dst[x] to cols[x] + … + cols[x+k-1] for every x < len(dst),
// modulo 2¹⁶. len(dst) ≥ 16, k ≥ 1 and len(cols) ≥ len(dst)+k-1.
//
//go:noescape
func WindowSums(dst, cols []uint16, k int)

// BoxMeans sets dst[i] to s·r >> 31, where s = runs[starts[i]] plus, if
// wides[i] is -1 rather than 0, cols[starts[i]], and r is wide for such a box
// and narrow otherwise. Every such mean is at most 255, len(dst) ≥ 8, starts
// and wides are as long, and runs and cols are readable one element past
// every start.
//
//go:noescape
func BoxMeans(dst []byte, runs, cols []uint16, starts, wides []int32, narrow, wide uint32)

// AddBytes adds delta into acc byte by byte, modulo 256. len(acc) is a
// multiple of 32 and len(delta) ≥ len(acc).
//
//go:noescape
func AddBytes(acc, delta []byte)

// MaskOr sets every p[i] to p[i]&keep | set. len(p) is a multiple of 32.
//
//go:noescape
func MaskOr(p []byte, keep, set byte)

// DeadzoneDelta sets delta[i] to d = cur[i]-prev[i], or where d+dz ≤ 2·dz
// (modulo 256) to 0 and cur[i] to prev[i]. len(delta) is a multiple of 32;
// cur and prev are at least as long.
//
//go:noescape
func DeadzoneDelta(delta, cur, prev []byte, dz byte)

// MatchLen returns how many leading bytes of a and b agree, up to len(a).
// len(a) is a multiple of 32 and len(b) ≥ len(a).
//
//go:noescape
func MatchLen(a, b []byte) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
