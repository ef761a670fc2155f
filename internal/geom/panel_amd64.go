//go:build amd64 && !km_purego

package geom

// panelNearestF64 runs one float64 panel (4 points, coordinate-major)
// against the center tile centers (len(cNorms) rows of d coordinates, the
// first one center c0), folding each pair's clamped norm expansion into
// the running best distances and indices of the panel's points
// (panel_amd64.s). Each dot is one sequential multiply-then-add chain, so
// every value is bit-identical to the pure-Go tile's. Only called when
// hasAVX2FMA is true.
//
//go:noescape
func panelNearestF64(panel, pn, centers, cNorms, best []float64, idx []int32, d, c0 int)

// panelNearestF32 is panelNearestF64 for an 8-point float32 panel, in the
// AVX2 rung's per-pair order: dot1x4f32avx's for a center tile's full
// groups of four, dotWide's for its tail centers.
//
//go:noescape
func panelNearestF32(panel, pn, centers, cNorms, best []float32, idx []int32, d, c0 int)

// packPanelsF64 packs the rows×d row-major points of src into 4-point
// panels in dst (coordinate j of point i at dst[(i/4)*4*d + j*4 + i%4]),
// zero-padded to a whole panel, and writes each point's squared norm in
// sqNormSeq's order to pn (padded lanes 0), in one gather pass.
//
//go:noescape
func packPanelsF64(dst, pn, src []float64, rows, d int)

// packPanelsF32 is packPanelsF64 for 8-point float32 panels, with the
// norms in sqNormWide's order.
//
//go:noescape
func packPanelsF32(dst, pn, src []float32, rows, d int)

// packRowsF64 is packPanelsF64 for points held as one slice per row: it
// gathers straight from the rows, each of which must hold at least d
// coordinates.
//
//go:noescape
func packRowsF64(dst, pn []float64, rows [][]float64, d int)

// packRowsF32 is packRowsF64 for 8-point float32 panels, narrowing each
// coordinate as narrow32 does.
//
//go:noescape
func packRowsF32(dst, pn []float32, rows [][]float64, d int)
