//go:build !amd64 || km_purego

package geom

// hasAVX2F32 is false on builds without the AVX2 kernels (non-amd64, or
// the km_purego tag); the tier ladder then tops out at the baseline SIMD
// tier (or pure Go) and SetF32Tier(F32TierAVX2) reports failure.
const hasAVX2F32 = false

// The AVX2 entry points alias the pure-Go kernels so the dispatch sites in
// kernels.go compile unconditionally; hasAVX2F32 keeps them unreached.
func dot2x4f32avx(a, b, c0, c1, c2, c3 []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float32) {
	return dot2x4(a, b, c0, c1, c2, c3)
}

func dot1x4f32avx(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32) {
	return dot1x4(a, c0, c1, c2, c3)
}
