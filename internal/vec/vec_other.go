//go:build !amd64 || purego

package vec

// AVX2 reports whether the vector kernels run: never on this build, so
// every caller takes its portable loop.
const AVX2 = false

func BlurPlane(y []byte, w, h int, hs []byte)               { panic("vec: no AVX2 kernels") }
func ColumnSums(dst []uint16, src []byte, stride, rows int) { panic("vec: no AVX2 kernels") }
func WindowSums(dst, cols []uint16, k int)                  { panic("vec: no AVX2 kernels") }
func AddBytes(acc, delta []byte)                            { panic("vec: no AVX2 kernels") }
func BoxMeans(dst []byte, runs, cols []uint16, starts, wides []int32, narrow, wide uint32) {
	panic("vec: no AVX2 kernels")
}
func MaskOr(p []byte, keep, set byte)                { panic("vec: no AVX2 kernels") }
func DeadzoneDelta(delta, cur, prev []byte, dz byte) { panic("vec: no AVX2 kernels") }
func MatchLen(a, b []byte) int                       { panic("vec: no AVX2 kernels") }
