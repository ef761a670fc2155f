//go:build amd64 && !km_purego

package geom

// hasDotF32Asm reports that this build carries the SSE float32 dot kernels
// in dotf32_amd64.s. Build with -tags km_purego to exclude them and fall
// back to the pure-Go kernels everywhere (the escape hatch the docs call
// the "purego" build).
const hasDotF32Asm = true

// dot2x4f32asm computes the 8 float32 inner products of points {a, b}
// against centers {c0..c3} with 4-wide SSE lanes. Accumulation order is
// lane-strided (i, i+4, i+8, … per lane, lanes summed at the end), so the
// value may differ from the pure-Go dot2x4 by float32 rounding — covered by the
// tolerance contract, and still a pure function of the dimension.
//
//go:noescape
func dot2x4f32asm(a, b, c0, c1, c2, c3 []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float32)

// dot1x4f32asm is dot2x4f32asm for a single point.
//
//go:noescape
func dot1x4f32asm(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32)
