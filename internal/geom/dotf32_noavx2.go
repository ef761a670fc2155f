//go:build !amd64 || km_purego

package geom

// hasAVX2FMA is false on builds without the AVX2 kernels (non-amd64, or
// the km_purego tag); the tier ladder then tops out at the baseline SIMD
// tier (or pure Go), SetF32Tier(F32TierAVX2) reports failure, and both
// precisions tile through the 2×4 Go loop.
const hasAVX2FMA = false

// hasAVX512 is false wherever hasAVX2FMA is: no AVX-512 panel rung.
const hasAVX512 = false

// The AVX2 and AVX-512 entry points stand in for the assembly so the
// dispatch sites in kernels.go compile unconditionally; hasAVX2FMA and
// hasAVX512 keep them unreached.
func dot1x4f32avx(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32) {
	return dot1x4(a, c0, c1, c2, c3)
}

func panelNearestF64(panel, pn, centers, cNorms, best []float64, idx []int32, d, c0 int) {
	panic("geom: panel kernel without AVX2")
}

func panelNearestF32(panel, pn, centers, cNorms, best []float32, idx []int32, d, c0 int) {
	panic("geom: panel kernel without AVX2")
}

func packPanelsF64(dst, pn, src []float64, rows, d int) {
	panic("geom: panel kernel without AVX2")
}

func packPanelsF32(dst, pn, src []float32, rows, d int) {
	panic("geom: panel kernel without AVX2")
}

func packRowsF64(dst, pn []float64, rows [][]float64, d int) {
	panic("geom: panel kernel without AVX2")
}

func packRowsF32(dst, pn []float32, rows [][]float64, d int) {
	panic("geom: panel kernel without AVX2")
}

func panelNearestF64AVX512(panel, pn, centers, cNorms, best []float64, idx []int32, d, c0 int) {
	panic("geom: panel kernel without AVX-512")
}

func panelNearestF32AVX512(panel, pn, centers, cNorms, best []float32, idx []int32, d, c0 int) {
	panic("geom: panel kernel without AVX-512")
}

func packPanelsF64AVX512(dst, pn, src []float64, rows, d int) {
	panic("geom: panel kernel without AVX-512")
}

func packPanelsF32AVX512(dst, pn, src []float32, rows, d int) {
	panic("geom: panel kernel without AVX-512")
}

func packRowsF64AVX512(dst, pn []float64, rows [][]float64, d int) {
	panic("geom: panel kernel without AVX-512")
}

func packRowsF32AVX512(dst, pn []float32, rows [][]float64, d int) {
	panic("geom: panel kernel without AVX-512")
}
