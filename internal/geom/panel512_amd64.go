//go:build amd64 && !km_purego

package geom

// panelNearestF64AVX512 is panelNearestF64 for an 8-point float64 panel
// on ZMM registers (panel512_amd64.s): the same multiply-then-add chain
// per pair, so every value is bit-identical to the Go tile's. Only called
// when hasAVX512 is true.
//
//go:noescape
func panelNearestF64AVX512(panel, pn, centers, cNorms, best []float64, idx []int32, d, c0 int)

// panelNearestF32AVX512 is panelNearestF32 for a 16-point float32 panel,
// in the AVX2 rung's per-pair order.
//
//go:noescape
func panelNearestF32AVX512(panel, pn, centers, cNorms, best []float32, idx []int32, d, c0 int)

// packPanelsF64AVX512 is packPanelsF64 for 8-point panels.
//
//go:noescape
func packPanelsF64AVX512(dst, pn, src []float64, rows, d int)

// packPanelsF32AVX512 is packPanelsF32 for 16-point panels.
//
//go:noescape
func packPanelsF32AVX512(dst, pn, src []float32, rows, d int)

// packRowsF64AVX512 is packRowsF64 for 8-point panels.
//
//go:noescape
func packRowsF64AVX512(dst, pn []float64, rows [][]float64, d int)

// packRowsF32AVX512 is packRowsF32 for 16-point panels.
//
//go:noescape
func packRowsF32AVX512(dst, pn []float32, rows [][]float64, d int)
