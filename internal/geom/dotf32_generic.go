//go:build (!amd64 && !arm64) || km_purego

package geom

// hasDotF32Asm is false on builds without SIMD kernels (architectures other
// than amd64/arm64, or the km_purego tag); the blocked float32 engine then
// always runs the pure-Go dot kernels and SetF32Tier reports failure for
// every SIMD tier.
const hasDotF32Asm = false

// baselineF32Tier is F32TierPureGo when the build carries no assembly.
const baselineF32Tier = F32TierPureGo

// The asm entry points alias the pure-Go kernels so the dispatch sites in
// kernels.go compile unconditionally; hasDotF32Asm keeps them unreached.
func dot2x4f32asm(a, b, c0, c1, c2, c3 []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float32) {
	return dot2x4(a, b, c0, c1, c2, c3)
}

func dot1x4f32asm(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32) {
	return dot1x4(a, c0, c1, c2, c3)
}
