//go:build !amd64 || purego

package ops

import "math"

// vecBlurMin is the narrowest row boxBlur3 hands to blurRowVec. There is no
// vector kernel on this build, so every row takes the SWAR loop.
const vecBlurMin = math.MaxInt

func blurRowVec(dst, above, cur, below []byte) { panic("ops: no vector blur kernel") }
