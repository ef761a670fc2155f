package geom

import "sync"

// kernels is the per-precision arithmetic of the engine: the only code in
// the repository that differs between float32 and float64 storage. Every
// generic body above it (the blocked engine in blocked.go, and seed, core,
// lloyd, mrkm, stream and distkm) runs one control flow for both storage
// types and calls into the table for:
//
//   - the nearest-center tile: for float64 and the float32 AVX2 rung, the
//     panel rung the CPUID probe picks — AVX-512 (8 float64 or 16 float32
//     points per panel, panel512_amd64.s) where it finds AVX-512F, AVX2
//     (4 or 8 points, panel_amd64.s) where it finds AVX2+FMA — else the
//     2×4 Go tile over dot2x4/dot1x4 for full groups of four centers: pure
//     Go for float64, the active tier's kernels (pure Go, SSE2/NEON;
//     f32tier.go) for float32;
//   - the summation order of the tail dots and of norms: one sequential
//     chain for float64, four interleaved chains for float32;
//   - the scalar pair and row distances: the exact (a−b)² sums for float64,
//     the norm expansion for float32, which has no exact scalar kernel;
//   - narrowing float64 rows into the storage type.
//
// The tables' bits are pinned: golden_test.go holds the float64 table and
// the pure-Go float32 one, and the tier tests hold every float32 rung.
type kernels[T Float] struct {
	panelRung[T]

	dot2x4 func(a, b, c0, c1, c2, c3 []T) (a0, a1, a2, a3, b0, b1, b2, b3 T)
	dot1x4 func(a, c0, c1, c2, c3 []T) (a0, a1, a2, a3 T)
	// goDots marks dot2x4/dot1x4 as the pure-Go kernels, which the tile
	// loop then calls directly: at low dimensions an indirect call per
	// 2×4 block costs a measurable share of a fit.
	goDots bool
	dot2x1 func(a, b, c []T) (da, db T) // a center tile's tail, two points
	dot1   func(a, b []T) T             // a center tile's tail, one point
	sqNorm func(a []T) T

	// pair is the scalar distance of one (point, center) pair given both
	// cached squared norms. pairBound may stop once its partial sum reaches
	// bound, returning a value ≥ bound.
	pair      func(a, b []T, an, bn T) float64
	pairBound func(a, b []T, an, bn T, bound float64) float64
	// row fills out[c] with the distance from p to every center.
	row func(p []T, pn T, centers *Mat[T], cNorms []T, out []T)
	// exact reports whether pair and row are the exact (a−b)² sums.
	exact bool

	// convert narrows (or copies) one float64 row into dst.
	convert func(dst []T, src []float64)
	// pool recycles Scratch[T] buffers.
	pool *sync.Pool
}

// panelRung is one rung of the panel engine for storage type T: panel
// runs one panel of lanes points against a center tile (blocked.go's
// panelTile); pack and packRows fill a tile's panels and point norms from
// a matrix or from float64 rows. A zero rung (nil panel) tiles through
// the 2×4 Go loop.
type panelRung[T Float] struct {
	panel    func(panel, pn, centers, cNorms, best []T, idx []int32, d, c0 int)
	pack     func(dst, pn, src []T, rows, d int)
	packRows func(dst, pn []T, rows [][]float64, d int)
	lanes    int
}

// The amd64 panel rungs. Both replay the same per-pair arithmetic, so the
// rung a CPU gets moves no bit.
var (
	avx2Rung64 = panelRung[float64]{
		panel: panelNearestF64, pack: packPanelsF64, packRows: packRowsF64, lanes: 4}
	avx512Rung64 = panelRung[float64]{
		panel: panelNearestF64AVX512, pack: packPanelsF64AVX512, packRows: packRowsF64AVX512, lanes: 8}
	avx2Rung32 = panelRung[float32]{
		panel: panelNearestF32, pack: packPanelsF32, packRows: packRowsF32, lanes: 8}
	avx512Rung32 = panelRung[float32]{
		panel: panelNearestF32AVX512, pack: packPanelsF32AVX512, packRows: packRowsF32AVX512, lanes: 16}
)

// bestRung returns the widest panel rung the CPUID probe allows: avx512
// where it found AVX-512F, avx2 where it found AVX2+FMA, and none (the Go
// tile) elsewhere — km_purego builds, other architectures, older CPUs.
func bestRung[T Float](avx2, avx512 panelRung[T]) panelRung[T] {
	switch {
	case hasAVX512:
		return avx512
	case hasAVX2FMA:
		return avx2
	}
	return panelRung[T]{}
}

var kernels64 = kernels[float64]{
	panelRung: bestRung(avx2Rung64, avx512Rung64),
	dot2x4:    dot2x4[float64],
	dot1x4:    dot1x4[float64],
	goDots:    true,
	dot2x1:    dot2x1[float64],
	dot1:      dot1[float64],
	sqNorm:    sqNormSeq[float64],
	pair:      func(a, b []float64, _, _ float64) float64 { return SqDist(a, b) },
	pairBound: func(a, b []float64, _, _, bound float64) float64 { return SqDistBound(a, b, bound) },
	row:       exactRow,
	exact:     true,
	convert:   func(dst, src []float64) { copy(dst, src) },
	pool:      &sync.Pool{New: func() any { return new(Scratch[float64]) }},
}

var scratch32Pool = &sync.Pool{New: func() any { return new(Scratch[float32]) }}

// kernels32 holds one float32 table per tier, indexed by F32Tier. The
// SSE2 and NEON rungs share the baseline assembly symbol; only the one the
// build's architecture guarantees is ever selected. The AVX2 tier tiles
// through its panel rung only (16-point panels where the probe finds
// AVX-512F, 8-point ones elsewhere, one per-pair order either way), so it
// has no dot2x4; its dot1x4 serves the row kernel.
var kernels32 = [...]*kernels[float32]{
	F32TierPureGo: newKernels32(dot2x4[float32], dot1x4[float32], true, panelRung[float32]{}),
	F32TierSSE2:   newKernels32(dot2x4f32asm, dot1x4f32asm, false, panelRung[float32]{}),
	F32TierNEON:   newKernels32(dot2x4f32asm, dot1x4f32asm, false, panelRung[float32]{}),
	F32TierAVX2:   newKernels32(nil, dot1x4f32avx, false, bestRung(avx2Rung32, avx512Rung32)),
}

func newKernels32(d2x4 func(a, b, c0, c1, c2, c3 []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float32),
	d1x4 func(a, c0, c1, c2, c3 []float32) (a0, a1, a2, a3 float32), goDots bool,
	rung panelRung[float32]) *kernels[float32] {
	k := &kernels[float32]{
		panelRung: rung,
		dot2x4:    d2x4,
		dot1x4:    d1x4,
		goDots:    goDots,
		dot2x1:    dot2x1Wide[float32],
		dot1:      dotWide[float32],
		sqNorm:    sqNormWide[float32],
		pair:      SqDistNorm[float32],
		pairBound: func(a, b []float32, an, bn float32, _ float64) float64 { return SqDistNorm(a, b, an, bn) },
		convert:   narrow32,
		pool:      scratch32Pool,
	}
	k.row = func(p []float32, pn float32, centers *Mat[float32], cNorms []float32, out []float32) {
		expandRow(k, p, pn, centers, cNorms, out)
	}
	return k
}

// kernelsFor returns the kernel table of storage type T (for float32, the
// table of the active tier).
func kernelsFor[T Float]() *kernels[T] {
	var z T
	if _, ok := any(z).(float32); ok {
		return any(kernels32[activeF32Tier()]).(*kernels[T])
	}
	return any(&kernels64).(*kernels[T])
}

// PanelKernel reports whether the nearest-center tile of storage type T
// runs a panel kernel: for float64 wherever the CPUID probe found AVX2+FMA,
// for float32 while the active tier is the AVX2 rung. Everywhere else —
// km_purego builds, arm64, amd64 without AVX2+FMA, the pure-Go and
// SSE2/NEON float32 tiers — the tile is the 2×4 Go loop. Callers choosing
// between the blocked scan and a structure that prunes centers read it.
func PanelKernel[T Float]() bool { return kernelsFor[T]().panel != nil }

// Bits returns the width of storage type T: 64 or 32.
func Bits[T Float]() int {
	var z T
	if _, ok := any(z).(float32); ok {
		return 32
	}
	return 64
}

// exactRow is float64's row kernel: the exact (a−b)² sum per center.
func exactRow(p []float64, _ float64, centers *Matrix, _ []float64, out []float64) {
	for c := 0; c < centers.Rows; c++ {
		out[c] = SqDist(p, centers.Row(c))
	}
}

// narrow32 rounds one float64 row into float32 storage.
func narrow32(dst []float32, src []float64) {
	for j, v := range src {
		//kmlint:ignore precision narrow32 is the blessed f64→f32 narrowing funnel (docs/kernels.md)
		dst[j] = float32(v)
	}
}
