//go:build amd64 && !km_purego

package geom

// baselineF32Tier is the SIMD tier the architecture guarantees without
// feature detection: SSE2 on amd64 (GOAMD64=v1 baseline).
const baselineF32Tier = F32TierSSE2

// dot1x4f32avx computes the 4 float32 inner products of point a against
// centers {c0..c3} with 8-wide AVX2 fused multiply-adds
// (dotf32_avx2_amd64.s): the AVX2 rung's row kernel (expandRow), whose
// per-pair order panelNearestF32 replays for the tile. Accumulation order
// is 8-lane strided with a high-half fold and a fused scalar tail into
// lane 0 — a different fixed order than the SSE2 and pure-Go kernels,
// covered by the cross-tier tolerance contract. Only called when
// hasAVX2FMA is true.
//
//go:noescape
func dot1x4f32avx(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32)
