package geom

import (
	"fmt"
	"math"
	"sync/atomic"
)

// This file implements the blocked pairwise-distance engine. Instead of one
// (point, center) pair at a time through SqDist, consumers hand the kernels a
// tile of points and a tile of centers and get back nearest indices and
// squared distances for the whole block. Distances are computed via the
// expansion
//
//	d²(x, c) = ‖x‖² + ‖c‖² − 2·⟨x, c⟩
//
// with the norms cached (centers once per round/iteration, points once per
// tile), so the inner loop is a fused multi-accumulator inner product — 2
// flops per coordinate instead of SqDist's 3, with each center tile resident
// in L1 across the point tile. A center tile is as many centers as fit in
// 16 KiB with their norms (centerTile), so at low dimensions one tile
// holds hundreds of centers.
//
// The nearest-center tile has two paths. Where the CPUID probe finds
// AVX2+FMA (amd64 without km_purego), float64 and the float32 AVX2 rung
// copy each 128-point tile into panels — lane-width groups of points stored
// coordinate-major (4 float64 or 8 float32 per YMM register; 8 or 16 per
// ZMM register where the probe also finds AVX-512F), packed in one pass
// that also computes the point norms — and make one assembly call per
// (panel, center tile) that keeps the dots, the clamped expansion and the
// running min/argmin in registers (panel_amd64.s, panel512_amd64.s).
// Everywhere else the tile runs a 2-point × 4-center loop over the table's
// dot kernels, each point row loaded once per 4 centers. Every path
// computes every pair's value in the same order, so they agree bit for
// bit.
//
// The engine is one body for both storage types; the
// arithmetic that differs (which dot kernels, which summation order) comes
// from the kernel table in kernels.go.
//
// Determinism: each (point, center) inner product is accumulated in a fixed
// order that depends only on the dimension and the center's position in the
// 4-wide center ladder — never on where the point lands in the tiling, on
// the center tile's size or on how many workers share the scan — so results
// do not depend on Parallelism.
// For float64 every micro-kernel accumulates strictly sequentially in
// coordinate order, multiplying then adding (the panel kernels never fuse).
// The expansion rounds differently from SqDist's (a−b)²
// sum — equivalence tests bound the difference (costs agree to ~1e-9
// relative) and assert identical nearest assignments on all exercised
// datasets.
//
// Cancellation: for x ≈ c the expansion can go slightly negative; the
// kernels clamp at 0 so downstream D² sampling weights stay valid.

const (
	// tilePoints is the number of point rows processed per tile. At the
	// paper's dimensionalities (≤ 128) a tile is ≤ 128 KiB and stays in L2
	// while every center tile streams through it.
	tilePoints = 128
	// centerTileBytes is the budget of one center tile, its rows and their
	// norms: 16 KiB keeps it L1-resident while the point tile streams
	// past it.
	centerTileBytes = 16 << 10
)

// centerTile returns the number of center rows per tile at d coordinates
// of storage type T: as many rows, each with its norm, as fit in
// centerTileBytes, rounded down to a multiple of 4 and never below 16 (so
// from d = 128 in float64 and d = 256 in float32 on, a tile outgrows the
// budget). Tiles start at multiples of 4, so every center keeps its place
// in the 4-center ladder — full group or tail — whatever the tile size,
// and the tile size moves no bit. A larger tile means fewer kernel calls
// per panel: one for a k = 256, d = 3 scan, where 16-center tiles took 16.
func centerTile[T Float](d int) int {
	return max(centerTileBytes/((d+1)*Bits[T]()/8)&^3, 16)
}

// KernelSelect overrides the automatic naive/blocked choice that UseBlocked
// makes. Benchmarks and equivalence tests use it to pin a kernel; production
// code leaves it at KernelAuto.
type KernelSelect int32

const (
	// KernelAuto picks blocked vs naive per call site from the measured
	// crossover (the default).
	KernelAuto KernelSelect = iota
	// KernelNaive forces the SqDistBound early-exit scan everywhere.
	KernelNaive
	// KernelBlocked forces the blocked engine everywhere.
	KernelBlocked
)

var kernelOverride atomic.Int32

// SetKernel pins kernel selection globally (for benchmarks and equivalence
// tests). Pass KernelAuto to restore the measured-crossover default.
//
// Pinning KernelNaive also disables the single-pair norm-expansion kernel
// (SqDistNorm) in consumers such as k-means++'s D² update, restoring the
// exact (a−b)² arithmetic everywhere — the escape hatch for data far from
// the origin, where the expansion's cancellation costs precision.
func SetKernel(k KernelSelect) { kernelOverride.Store(int32(k)) }

// PinnedKernel returns the current SetKernel override (KernelAuto when none).
func PinnedKernel() KernelSelect { return KernelSelect(kernelOverride.Load()) }

// Crossover between the early-exit scan and the blocked engine, measured on
// linux/amd64 (go1.24, BenchmarkNearestCrossover in blocked_test.go): the
// blocked kernel wins from k = 4 up at every dimension in the grid
// (d ∈ {3,15,58,128} × k ∈ {4..128}, 1.3–2.2×; 2.1× at the k=32/d=58
// serving point). Below k = 4 the register-blocked kernel degenerates to its
// tail paths and the scan's early exits win, so tiny center counts — and
// degenerate k·d products where norm setup dominates — stay on SqDistBound.
const (
	blockedMinCenters = 4
	blockedMinWork    = 16
)

// UseBlocked reports whether the blocked engine should handle a nearest-
// center workload of k centers in d dimensions. The small-k/small-d regime
// stays on the SqDistBound early-exit scan.
func UseBlocked(k, d int) bool {
	switch KernelSelect(kernelOverride.Load()) {
	case KernelNaive:
		return false
	case KernelBlocked:
		return true
	}
	return k >= blockedMinCenters && k*d >= blockedMinWork
}

// Scratch holds the reusable tile buffers of the blocked kernels. Steady-
// state callers (serving) obtain one from the pool per batch and release it,
// so no per-batch allocations happen once the pool is warm. A Scratch is not
// safe for concurrent use; parallel scans take one per worker.
type Scratch[T Float] struct {
	pn     []T     // point-tile squared norms (padded to the lane width on the panel path)
	gather []T     // contiguous copy of a point tile (slice-of-rows inputs)
	d2     []T     // tile nearest distances
	idx    []int32 // tile nearest indices

	// The panel path's tile: the points in panels, and the running
	// nearest distance and index of every lane, padded lanes included.
	panels  []T
	best    []T
	bestIdx []int32
}

// GetScratch returns a Scratch from the shared pool of storage type T.
func GetScratch[T Float]() *Scratch[T] { return kernelsFor[T]().pool.Get().(*Scratch[T]) }

// Release returns the Scratch to the pool. The caller must not use it after.
func (s *Scratch[T]) Release() { kernelsFor[T]().pool.Put(s) }

func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// RowSqNorms returns ‖row‖² for every row of m, reusing dst when it has
// capacity. Consumers compute center norms once per round/iteration and pass
// them to the blocked kernels.
func RowSqNorms[T Float](m *Mat[T], dst []T) []T {
	sqNorm := kernelsFor[T]().sqNorm
	dst = grow(&dst, m.Rows)
	for i := 0; i < m.Rows; i++ {
		dst[i] = sqNorm(m.Row(i))
	}
	return dst
}

// NearestBlocked computes, for every row of pts, the index of the nearest
// row of centers and the squared distance to it, writing idx[i] and d2[i].
// cNorms must be RowSqNorms(centers, ...). Ties go to the lowest center
// index. sc provides the tile buffers; pass a pooled Scratch to avoid
// allocation.
func NearestBlocked[T Float](pts, centers *Mat[T], cNorms []T, idx []int32, d2 []T, sc *Scratch[T]) {
	n, d, k := pts.Rows, pts.Cols, centers.Rows
	if k == 0 {
		panic("geom: NearestBlocked with no centers")
	}
	if centers.Cols != d {
		panic(fmt.Sprintf("geom: NearestBlocked dim mismatch: points %d, centers %d", d, centers.Cols))
	}
	if len(cNorms) != k {
		panic(fmt.Sprintf("geom: NearestBlocked got %d center norms for %d centers", len(cNorms), k))
	}
	if len(d2) < n || len(idx) < n {
		panic("geom: NearestBlocked output shorter than points")
	}
	kt := kernelsFor[T]()
	for lo := 0; lo < n; lo += tilePoints {
		hi := min(lo+tilePoints, n)
		nearestTile(kt, pts, lo, hi, centers, cNorms, idx[lo:hi], d2[lo:hi], sc)
	}
}

// NearestBlockedRows is NearestBlocked for float64 points held as one slice
// per row (the public API's representation), each of centers.Cols
// coordinates. Each tile is gathered into contiguous scratch storage of
// type T first — on the panel path straight into the panels — with one
// rounding per coordinate for float32, amortized over the k-center scan,
// so the inner kernels run at full speed; out[i] receives the
// nearest-center index of points[i].
func NearestBlockedRows[T Float](points [][]float64, centers *Mat[T], cNorms []T, out []int, sc *Scratch[T]) {
	for i, p := range points {
		if len(p) != centers.Cols {
			panic(fmt.Sprintf("geom: NearestBlockedRows point %d has %d coordinates, centers %d", i, len(p), centers.Cols))
		}
	}
	nearestRows(kernelsFor[T](), points, centers, cNorms, out, sc)
}

// nearestRows is NearestBlockedRows on the kernel table kt, over points
// already checked to have centers.Cols coordinates each.
func nearestRows[T Float](kt *kernels[T], points [][]float64, centers *Mat[T], cNorms []T, out []int, sc *Scratch[T]) {
	for lo := 0; lo < len(points); lo += tilePoints {
		hi := min(lo+tilePoints, len(points))
		m := hi - lo
		tIdx, tD2 := grow(&sc.idx, m), grow(&sc.d2, m)
		if kt.panel != nil {
			panels, pn := packRows(kt, points[lo:hi], centers.Cols, sc)
			panelTile(kt, panels, pn, m, centers, cNorms, tIdx, tD2, sc)
		} else {
			view := gatherRows(kt, points[lo:hi], centers.Cols, sc)
			nearestTile(kt, &view, 0, m, centers, cNorms, tIdx, tD2, sc)
		}
		for i := 0; i < m; i++ {
			out[lo+i] = int(tIdx[i])
		}
	}
}

// gatherRows copies rows into sc's contiguous gather buffer as T.
func gatherRows[T Float](kt *kernels[T], rows [][]float64, d int, sc *Scratch[T]) Mat[T] {
	g := grow(&sc.gather, len(rows)*d)
	for i, p := range rows {
		kt.convert(g[i*d:(i+1)*d], p)
	}
	return Mat[T]{Rows: len(rows), Cols: d, Data: g}
}

// VisitNearest runs the blocked nearest-center search over rows [lo, hi) of
// pts in engine-tile steps, invoking visit(i, idx, d2) for every row in
// ascending order — the building block consumers tile their fused scan
// passes on (Lloyd assignment+accumulate and the k-means|| round updates),
// keeping each point tile cache-resident while it is consumed.
// The distance is widened to float64 for the visitor, so downstream sums
// accumulate in double precision. Tile buffers come from sc, so the caller
// must not also use NearestBlockedRows on sc.
func VisitNearest[T Float](pts, centers *Mat[T], cNorms []T, lo, hi int, sc *Scratch[T], visit func(i int, idx int32, d2 float64)) {
	idxT, d2T := grow(&sc.idx, tilePoints), grow(&sc.d2, tilePoints)
	for tLo := lo; tLo < hi; tLo += tilePoints {
		tHi := min(tLo+tilePoints, hi)
		view := pts.RowRange(tLo, tHi)
		NearestBlocked(&view, centers, cNorms, idxT, d2T, sc)
		for i := tLo; i < tHi; i++ {
			visit(i, idxT[i-tLo], float64(d2T[i-tLo]))
		}
	}
}

// Visit runs the nearest-center scan of rows [lo, hi) of pts, calling
// visit(i, idx, d2) for every row in ascending order: the blocked engine
// above UseBlocked's crossover, the scalar pair scan (NearestPair) below it,
// in either precision. This is the policy of the k-means|| D² passes:
// FoldNearest applies it to each candidate group it folds, and Visit over
// all the candidates at once is the full nearest scan its recorded rows are
// checked against (core.WeightSpan, Step 7's test oracle). Lloyd steps,
// costs and assignments scan with VisitAssign.
func Visit[T Float](pts, centers *Mat[T], cNorms []T, lo, hi int, visit func(i int, idx int32, d2 float64)) {
	visitScan(pts, centers, cNorms, lo, hi, UseBlocked(centers.Rows, centers.Cols), visit)
}

// VisitAssign is the assignment scan of the Lloyd family: Visit's scan,
// except that the caller decides blocked, and that float32 — which has no
// exact scalar kernel, and whose blocked kernels are the arithmetic its
// tolerance contract is stated against — always takes the blocked engine.
func VisitAssign[T Float](pts, centers *Mat[T], cNorms []T, lo, hi int, blocked bool, visit func(i int, idx int32, d2 float64)) {
	visitScan(pts, centers, cNorms, lo, hi, blocked || !kernelsFor[T]().exact, visit)
}

// visitScan is Visit with the engine chosen by the caller.
func visitScan[T Float](pts, centers *Mat[T], cNorms []T, lo, hi int, blocked bool, visit func(i int, idx int32, d2 float64)) {
	if blocked {
		sc := GetScratch[T]()
		VisitNearest(pts, centers, cNorms, lo, hi, sc, visit)
		sc.Release()
		return
	}
	for i := lo; i < hi; i++ {
		idx, d2 := NearestPair(pts.Row(i), centers, cNorms)
		visit(i, int32(idx), d2)
	}
}

// nearestTile runs the blocked nearest-center search for point rows
// [pLo, pHi) of pts. idxTile and d2Tile are tile-local views (length
// pHi−pLo).
func nearestTile[T Float](kt *kernels[T], pts *Mat[T], pLo, pHi int, centers *Mat[T], cNorms []T, idxTile []int32, d2Tile []T, sc *Scratch[T]) {
	if kt.panel != nil {
		panels, pn := packTile(kt, pts, pLo, pHi, sc)
		panelTile(kt, panels, pn, pHi-pLo, centers, cNorms, idxTile, d2Tile, sc)
		return
	}
	m := pHi - pLo
	k := centers.Rows
	d2x4, d1x4, d2x1, d1 := kt.dot2x4, kt.dot1x4, kt.dot2x1, kt.dot1
	goDots := kt.goDots
	pn := grow(&sc.pn, m)
	for i := 0; i < m; i++ {
		pn[i] = kt.sqNorm(pts.Row(pLo + i))
	}
	inf := T(math.Inf(1))
	for i := 0; i < m; i++ {
		d2Tile[i], idxTile[i] = inf, 0
	}
	rows := centerTile[T](centers.Cols)
	for cLo := 0; cLo < k; cLo += rows {
		cHi := min(cLo+rows, k)
		// Two points at a time against the center tile.
		i := 0
		for ; i+2 <= m; i += 2 {
			pa, pb := pts.Row(pLo+i), pts.Row(pLo+i+1)
			na, nb := pn[i], pn[i+1]
			ba, bb := d2Tile[i], d2Tile[i+1]
			ia, ib := idxTile[i], idxTile[i+1]
			c := cLo
			for ; c+4 <= cHi; c += 4 {
				var a0, a1, a2, a3, b0, b1, b2, b3 T
				if goDots {
					a0, a1, a2, a3, b0, b1, b2, b3 = dot2x4(pa, pb,
						centers.Row(c), centers.Row(c+1), centers.Row(c+2), centers.Row(c+3))
				} else {
					a0, a1, a2, a3, b0, b1, b2, b3 = d2x4(pa, pb,
						centers.Row(c), centers.Row(c+1), centers.Row(c+2), centers.Row(c+3))
				}
				n0, n1, n2, n3 := cNorms[c], cNorms[c+1], cNorms[c+2], cNorms[c+3]
				if v := clamp0(na + n0 - 2*a0); v < ba {
					ba, ia = v, int32(c)
				}
				if v := clamp0(na + n1 - 2*a1); v < ba {
					ba, ia = v, int32(c+1)
				}
				if v := clamp0(na + n2 - 2*a2); v < ba {
					ba, ia = v, int32(c+2)
				}
				if v := clamp0(na + n3 - 2*a3); v < ba {
					ba, ia = v, int32(c+3)
				}
				if v := clamp0(nb + n0 - 2*b0); v < bb {
					bb, ib = v, int32(c)
				}
				if v := clamp0(nb + n1 - 2*b1); v < bb {
					bb, ib = v, int32(c+1)
				}
				if v := clamp0(nb + n2 - 2*b2); v < bb {
					bb, ib = v, int32(c+2)
				}
				if v := clamp0(nb + n3 - 2*b3); v < bb {
					bb, ib = v, int32(c+3)
				}
			}
			for ; c < cHi; c++ {
				da, db := d2x1(pa, pb, centers.Row(c))
				if v := clamp0(na + cNorms[c] - 2*da); v < ba {
					ba, ia = v, int32(c)
				}
				if v := clamp0(nb + cNorms[c] - 2*db); v < bb {
					bb, ib = v, int32(c)
				}
			}
			d2Tile[i], d2Tile[i+1] = ba, bb
			idxTile[i], idxTile[i+1] = ia, ib
		}
		if i < m { // odd tail point
			p := pts.Row(pLo + i)
			np := pn[i]
			best, bi := d2Tile[i], idxTile[i]
			c := cLo
			for ; c+4 <= cHi; c += 4 {
				var a0, a1, a2, a3 T
				if goDots {
					a0, a1, a2, a3 = dot1x4(p,
						centers.Row(c), centers.Row(c+1), centers.Row(c+2), centers.Row(c+3))
				} else {
					a0, a1, a2, a3 = d1x4(p,
						centers.Row(c), centers.Row(c+1), centers.Row(c+2), centers.Row(c+3))
				}
				if v := clamp0(np + cNorms[c] - 2*a0); v < best {
					best, bi = v, int32(c)
				}
				if v := clamp0(np + cNorms[c+1] - 2*a1); v < best {
					best, bi = v, int32(c+1)
				}
				if v := clamp0(np + cNorms[c+2] - 2*a2); v < best {
					best, bi = v, int32(c+2)
				}
				if v := clamp0(np + cNorms[c+3] - 2*a3); v < best {
					best, bi = v, int32(c+3)
				}
			}
			for ; c < cHi; c++ {
				if v := clamp0(np + cNorms[c] - 2*d1(p, centers.Row(c))); v < best {
					best, bi = v, int32(c)
				}
			}
			d2Tile[i], idxTile[i] = best, bi
		}
	}
}

// panelTile is nearestTile's panel path over m points packed by packTile
// or packRows (panels, with norms pn): for every center tile, one kernel
// call per panel. The kernel replays the Go tile's per-pair arithmetic
// lane by lane, so the results are the Go tile's bit for bit; padded
// lanes stay in sc.
func panelTile[T Float](kt *kernels[T], panels, pn []T, m int, centers *Mat[T], cNorms []T, idxTile []int32, d2Tile []T, sc *Scratch[T]) {
	d, k, lanes := centers.Cols, centers.Rows, kt.lanes
	n := len(pn)
	best, bestIdx := grow(&sc.best, n), grow(&sc.bestIdx, n)
	inf := T(math.Inf(1))
	for i := range best {
		best[i], bestIdx[i] = inf, 0
	}
	rows := centerTile[T](d)
	for cLo := 0; cLo < k; cLo += rows {
		cHi := min(cLo+rows, k)
		tile, tNorms := centers.Data[cLo*d:cHi*d], cNorms[cLo:cHi]
		for p := 0; p < n; p += lanes {
			kt.panel(panels[p*d:(p+lanes)*d], pn[p:p+lanes], tile, tNorms,
				best[p:p+lanes], bestIdx[p:p+lanes], d, cLo)
		}
	}
	copy(d2Tile, best[:m])
	copy(idxTile, bestIdx[:m])
}

// packTile packs point rows [lo, hi) of pts into sc's panels — lane-width
// groups of points stored coordinate-major, so coordinate j of point i
// lands at panels[(i/lanes)*lanes*d + j*lanes + i%lanes], zero-padded to a
// whole panel — and their squared norms, in the precision's order, into
// pn: one pass over the rows.
func packTile[T Float](kt *kernels[T], pts *Mat[T], lo, hi int, sc *Scratch[T]) (panels, pn []T) {
	d := pts.Cols
	panels, pn = panelBufs(kt, hi-lo, d, sc)
	kt.pack(panels, pn, pts.Data[lo*d:hi*d], hi-lo, d)
	return panels, pn
}

// packRows is packTile for float64 points held as one slice per row, each
// of d coordinates (NearestBlockedRows checks), gathered (and, for
// float32, narrowed) straight into the panels.
func packRows[T Float](kt *kernels[T], rows [][]float64, d int, sc *Scratch[T]) (panels, pn []T) {
	panels, pn = panelBufs(kt, len(rows), d, sc)
	kt.packRows(panels, pn, rows, d)
	return panels, pn
}

// panelBufs sizes sc's panel buffers for m points of d coordinates,
// padded to whole panels.
func panelBufs[T Float](kt *kernels[T], m, d int, sc *Scratch[T]) (panels, pn []T) {
	n := (m + kt.lanes - 1) / kt.lanes * kt.lanes
	return grow(&sc.panels, n*d), grow(&sc.pn, n)
}

// PairwiseSqDist fills out with the full pts.Rows×centers.Rows block of
// squared distances, row-major (out[i*k+j] = d²(point i, center j)), using
// the same norm-expansion kernels as NearestBlocked. pNorms/cNorms may be
// nil, in which case they are computed internally (allocating); pass cached
// norms on hot paths. out must have length ≥ pts.Rows*centers.Rows.
func PairwiseSqDist[T Float](pts, centers *Mat[T], pNorms, cNorms, out []T) {
	n, d, k := pts.Rows, pts.Cols, centers.Rows
	if centers.Cols != d {
		panic(fmt.Sprintf("geom: PairwiseSqDist dim mismatch: points %d, centers %d", d, centers.Cols))
	}
	if len(out) < n*k {
		panic("geom: PairwiseSqDist output too short")
	}
	if pNorms == nil {
		pNorms = RowSqNorms(pts, nil)
	}
	if cNorms == nil {
		cNorms = RowSqNorms(centers, nil)
	}
	kt := kernelsFor[T]()
	for i := 0; i < n; i++ {
		expandRow(kt, pts.Row(i), pNorms[i], centers, cNorms, out[i*k:(i+1)*k])
	}
}

// PairwiseSqDistRows is PairwiseSqDist for float64 points held as one slice
// per row, gathered tile-wise through sc (like NearestBlockedRows):
// out[i*k+j] receives d²(points[i], center j). The batch feature-transform
// path uses it to fill a whole distance block with the norm-expansion
// kernels.
func PairwiseSqDistRows[T Float](points [][]float64, centers *Mat[T], cNorms []T, out []T, sc *Scratch[T]) {
	k := centers.Rows
	if len(out) < len(points)*k {
		panic("geom: PairwiseSqDistRows output too short")
	}
	kt := kernelsFor[T]()
	for lo := 0; lo < len(points); lo += tilePoints {
		hi := min(lo+tilePoints, len(points))
		view := gatherRows(kt, points[lo:hi], centers.Cols, sc)
		pn := RowSqNorms(&view, grow(&sc.pn, hi-lo))
		PairwiseSqDist(&view, centers, pn, cNorms, out[lo*k:hi*k])
	}
}

// expandRow is one row of PairwiseSqDist: the norm-expansion distance from
// p (squared norm np) to every center, four centers per dot-kernel call
// and the tail one at a time — the same per-pair values NearestBlocked
// computes, since a center tile's 4-groups align with the row's.
func expandRow[T Float](kt *kernels[T], p []T, np T, centers *Mat[T], cNorms []T, row []T) {
	k := centers.Rows
	c := 0
	for ; c+4 <= k; c += 4 {
		a0, a1, a2, a3 := kt.dot1x4(p,
			centers.Row(c), centers.Row(c+1), centers.Row(c+2), centers.Row(c+3))
		row[c] = clamp0(np + cNorms[c] - 2*a0)
		row[c+1] = clamp0(np + cNorms[c+1] - 2*a1)
		row[c+2] = clamp0(np + cNorms[c+2] - 2*a2)
		row[c+3] = clamp0(np + cNorms[c+3] - 2*a3)
	}
	for ; c < k; c++ {
		row[c] = clamp0(np + cNorms[c] - 2*kt.dot1(p, centers.Row(c)))
	}
}

// SqDistRow fills out[c] with the squared distance from point p (with
// cached squared norm pn) to every row of centers, for callers that stream
// points through their own loop structure (the bounded Lloyd variants' full
// scans). float64 computes the exact (a−b)² sums; float32 runs the tier's
// 1×4 expansion kernels, matching PairwiseSqDist and NearestBlocked bit for
// bit.
func SqDistRow[T Float](p []T, pn T, centers *Mat[T], cNorms []T, out []T) {
	if len(out) < centers.Rows {
		panic("geom: SqDistRow output too short")
	}
	kernelsFor[T]().row(p, pn, centers, cNorms, out)
}

// SqDistPair returns the scalar squared distance of one (point, center)
// pair with cached squared norms an and bn: the exact (a−b)² sum for
// float64 (the norms are unused), the norm expansion for float32.
func SqDistPair[T Float](a, b []T, an, bn T) float64 {
	return kernelsFor[T]().pair(a, b, an, bn)
}

// pairNorm returns the squared norm of p the pair kernels take: ‖p‖² where
// they expand, 0 where they are the exact sums and ignore norms.
func (kt *kernels[T]) pairNorm(p []T) T {
	if kt.exact {
		return 0
	}
	return kt.sqNorm(p)
}

// NearestPair returns the index of the row of centers closest to p and the
// squared distance to it, scanning one pair at a time with SqDistPair's
// arithmetic (for float64: exactly Nearest, early exit included). Ties go
// to the lowest index. centers must have at least one row; cNorms are its
// cached squared norms.
func NearestPair[T Float](p []T, centers *Mat[T], cNorms []T) (int, float64) {
	if centers.Rows == 0 {
		panic("geom: NearestPair with no centers")
	}
	kt := kernelsFor[T]()
	pn := kt.pairNorm(p)
	best := 0
	bestD := kt.pair(p, centers.Row(0), pn, cNorms[0])
	for c := 1; c < centers.Rows; c++ {
		if d := kt.pairBound(p, centers.Row(c), pn, cNorms[c], bestD); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// FoldPair folds centers into a point's weighted D² cache entry d2 (weight
// w, +Inf before any center), one pair at a time with SqDistPair's
// arithmetic: the scalar form of a k-means|| round update, for rounds below
// the blocked crossover. It returns the new entry and the row of centers
// the entry now comes from, or -1 when no center is nearer than the entry
// (ties keep the entry, and within centers the lower row). An entry at +Inf
// becomes w times NearestPair's distance, with NearestPair's index, so a
// first fold rounds exactly like a nearest-center scan. An entry already at
// 0 stays 0.
func FoldPair[T Float](p []T, w, d2 float64, centers *Mat[T], cNorms []T) (float64, int) {
	if !(d2 > 0) {
		return d2, -1
	}
	if math.IsInf(d2, 1) {
		c, d := NearestPair(p, centers, cNorms)
		return w * d, c
	}
	kt := kernelsFor[T]()
	pn := kt.pairNorm(p)
	best, row := d2/w, -1
	for c := 0; c < centers.Rows; c++ {
		if nd := kt.pairBound(p, centers.Row(c), pn, cNorms[c], best); nd < best {
			best, row = nd, c
		}
	}
	return w * best, row
}

// FoldNearest folds centers, rows [first, first+centers.Rows) of the
// candidate set, into the weighted D² cache of rows [lo, hi) of ds —
// d2[i] = min(d2[i], w_i·d²(x_i, centers)), +Inf before any center — and
// returns the span's Σ d2: a k-means|| round update. near is the cache's
// other half: wherever the fold lowers d2[i] it sets near[i] to the
// candidate row it came from. A tie keeps the entry and so the earlier,
// lower row, which is a full nearest scan's tie rule; after folding every
// candidate group in order, near[i] is point i's nearest candidate. It
// runs the blocked engine above UseBlocked's crossover and FoldPair below
// it.
func FoldNearest[T Float](ds *Set[T], d2 []float64, near []int32, lo, hi int, centers *Mat[T], first int) float64 {
	cNorms := RowSqNorms(centers, nil)
	base := int32(first)
	var part float64
	if UseBlocked(centers.Rows, centers.Cols) {
		sc := GetScratch[T]()
		VisitNearest(ds.X, centers, cNorms, lo, hi, sc, func(i int, idx int32, dNew float64) {
			if nd := ds.W(i) * dNew; nd < d2[i] {
				d2[i], near[i] = nd, base+idx
			}
			part += d2[i]
		})
		sc.Release()
		return part
	}
	for i := lo; i < hi; i++ {
		var c int
		if d2[i], c = FoldPair(ds.Point(i), ds.W(i), d2[i], centers, cNorms); c >= 0 {
			near[i] = base + int32(c)
		}
		part += d2[i]
	}
	return part
}

// SqDistNorm returns d²(a, b) via the norm expansion given precomputed
// ‖a‖² and ‖b‖², taken in T and widened. With both norms cached this is 2
// flops per coordinate against SqDist's 3; k-means++'s incremental D²
// update caches the point norms once and the new center's norm per draw.
//
// Like all expansion kernels, its absolute error scales with the norms, not
// the distance: for data offset far from the origin (coordinates ≫ 1e6
// with unit-scale separations) prefer SqDist, or pin KernelNaive.
func SqDistNorm[T Float](a, b []T, an, bn T) float64 {
	return clamp0(float64(an) + float64(bn) - 2*float64(dotWide(a, b)))
}

func clamp0[T Float](v T) T {
	if v < 0 {
		return 0
	}
	return v
}

// dot2x4 computes the 8 inner products of points {a, b} against centers
// {c0..c3}. The slices are re-sliced to a common length up front so the
// loop body carries no bounds checks; each product is accumulated strictly
// sequentially in coordinate order (one accumulator per pair), so its value
// is bit-identical to dot1/dot2x1/dot1x4 for the same operands; the 8
// independent chains exist only for instruction-level parallelism.
func dot2x4[T Float](a, b, c0, c1, c2, c3 []T) (a0, a1, a2, a3, b0, b1, b2, b3 T) {
	d := len(a)
	if d == 0 {
		return
	}
	b = b[:d]
	c0 = c0[:d]
	c1 = c1[:d]
	c2 = c2[:d]
	c3 = c3[:d]
	for i := 0; i < d; i++ {
		av, bv := a[i], b[i]
		w0, w1, w2, w3 := c0[i], c1[i], c2[i], c3[i]
		a0 += av * w0
		a1 += av * w1
		a2 += av * w2
		a3 += av * w3
		b0 += bv * w0
		b1 += bv * w1
		b2 += bv * w2
		b3 += bv * w3
	}
	return
}

// dot1x4 is dot2x4 for a single point.
func dot1x4[T Float](a, c0, c1, c2, c3 []T) (a0, a1, a2, a3 T) {
	d := len(a)
	if d == 0 {
		return
	}
	c0 = c0[:d]
	c1 = c1[:d]
	c2 = c2[:d]
	c3 = c3[:d]
	for i := 0; i < d; i++ {
		av := a[i]
		a0 += av * c0[i]
		a1 += av * c1[i]
		a2 += av * c2[i]
		a3 += av * c3[i]
	}
	return
}

// dot2x1 computes ⟨a,c⟩ and ⟨b,c⟩ with the same per-pair sequential order.
func dot2x1[T Float](a, b, c []T) (da, db T) {
	d := len(a)
	if d == 0 {
		return
	}
	b = b[:d]
	c = c[:d]
	for i := 0; i < d; i++ {
		w := c[i]
		da += a[i] * w
		db += b[i] * w
	}
	return
}

// dot1 is the sequential single-pair tail kernel.
func dot1[T Float](a, b []T) (s T) {
	d := len(a)
	if d == 0 {
		return
	}
	b = b[:d]
	for i := 0; i < d; i++ {
		s += a[i] * b[i]
	}
	return
}

// dot2x1Wide computes ⟨a,c⟩ and ⟨b,c⟩ with dotWide's 4-accumulator order,
// so a center-tail inner product has one fixed value whether the point is
// processed in a 2-point pair or as the odd tail of a tile.
func dot2x1Wide[T Float](a, b, c []T) (da, db T) {
	d := len(a)
	if d == 0 {
		return
	}
	b = b[:d]
	c = c[:d]
	var a0, a1, a2, a3, b0, b1, b2, b3 T
	i := 0
	for ; i+4 <= d; i += 4 {
		w0, w1, w2, w3 := c[i], c[i+1], c[i+2], c[i+3]
		a0 += a[i] * w0
		a1 += a[i+1] * w1
		a2 += a[i+2] * w2
		a3 += a[i+3] * w3
		b0 += b[i] * w0
		b1 += b[i+1] * w1
		b2 += b[i+2] * w2
		b3 += b[i+3] * w3
	}
	for ; i < d; i++ {
		a0 += a[i] * c[i]
		b0 += b[i] * c[i]
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// dotWide is a 4-accumulator unrolled dot product with its own fixed
// summation order: SqDistNorm's kernel, and float32's tail kernel.
func dotWide[T Float](a, b []T) T {
	var s0, s1, s2, s3 T
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// sqNormSeq is ‖a‖² accumulated in one sequential chain (float64's order).
func sqNormSeq[T Float](a []T) T {
	var s T
	for _, v := range a {
		s += v * v
	}
	return s
}

// sqNormWide is ‖a‖² with dotWide's 4-chain order (float32's order).
func sqNormWide[T Float](a []T) T {
	var s0, s1, s2, s3 T
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * a[i]
		s1 += a[i+1] * a[i+1]
		s2 += a[i+2] * a[i+2]
		s3 += a[i+3] * a[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * a[i]
	}
	return (s0 + s1) + (s2 + s3)
}
