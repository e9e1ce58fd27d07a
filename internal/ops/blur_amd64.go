//go:build amd64 && !purego

package ops

import "math"

// vecBlurMin is the narrowest row boxBlur3 hands to blurRowVec: one block of
// sixteen outputs between the two border samples. It is set once, here,
// from what the CPU and the OS report; without AVX2 no row is wide enough.
var vecBlurMin = math.MaxInt

func init() {
	if hasAVX2() {
		vecBlurMin = 18
	}
}

// blurRowVec is boxBlur3's AVX2 row kernel (blur_amd64.s). dst is the row
// being written, above, cur and below its three source rows, each at least
// len(dst) ≥ 18 long; only dst[1 : len(dst)-1] is written.
//
//go:noescape
func blurRowVec(dst, above, cur, below []byte)

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
