package geom

import (
	"fmt"
	"math"
	"testing"
)

// tileCase is one shape of the bit-level tile check. grid draws small
// integers instead of unit-scale reals, so the expansion is exact and
// distinct centers tie; far offsets every coordinate by 1e3, so the
// expansion cancels and often clamps; dup repeats every other center;
// onPoints copies points into centers, so those pairs are at distance 0
// (or clamp to it); nonFinite plants NaN and +Inf coordinates, whose NaN
// expansions must pass the clamp and lose every comparison.
type tileCase struct {
	n, k, d                             int
	grid, far, dup, onPoints, nonFinite bool
}

func (c tileCase) String() string {
	return fmt.Sprintf("n=%d_k=%d_d=%d_grid=%v_far=%v_dup=%v_on=%v_nonfinite=%v",
		c.n, c.k, c.d, c.grid, c.far, c.dup, c.onPoints, c.nonFinite)
}

// tileCases covers n off every multiple of 4, 8 and 128, k off every
// multiple of 4 and of the center tile at d, and d from 1 past 64 with
// d mod 8 ≠ 0, plus the duplicate-center, zero-distance, exact-tie and
// clamping shapes. Every k past a tile is past the float32 tile, the
// larger of the two precisions' at any d, so those scans cross a center
// tile boundary in both and end in a ragged tile.
func tileCases() []tileCase {
	over := func(d, extra int) int { return centerTile[float32](d) + extra }
	var cases []tileCase
	for _, d := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 31, 33, 58, 63, 64, 65, 71, 130} {
		cases = append(cases, tileCase{n: 131, k: over(d, 3), d: d})
	}
	for _, n := range []int{1, 3, 5, 9, 127, 129, 259} {
		for _, k := range []int{1, 2, 3, 5, over(11, 1), 2*centerTile[float32](11) + 3} {
			cases = append(cases, tileCase{n: n, k: k, d: 11})
		}
	}
	for _, d := range []int{1, 4, 13, 67} {
		cases = append(cases,
			tileCase{n: 137, k: over(d, 5), d: d, dup: true},
			tileCase{n: 137, k: over(d, 5), d: d, onPoints: true},
			tileCase{n: 137, k: over(d, 5), d: d, grid: true, dup: true, onPoints: true},
			tileCase{n: 45, k: 7, d: d, grid: true},
			tileCase{n: 133, k: over(d, 7), d: d, far: true, onPoints: true},
			tileCase{n: 21, k: over(d, 3), d: d, nonFinite: true})
	}
	return cases
}

// data builds the case's points and centers in float64.
func (c tileCase) data() (pts, centers *Matrix) {
	s := uint64(c.n*1_000_003 + c.k*1009 + c.d)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		switch {
		case c.grid:
			return float64(int64(s>>61)) - 3 // integers in [-3, 4]
		case c.far:
			return 1e3 + float64(s>>11)/(1<<53)
		}
		return 4*float64(s>>11)/(1<<53) - 2
	}
	pts, centers = NewMatrix(c.n, c.d), NewMatrix(c.k, c.d)
	for i := range pts.Data {
		pts.Data[i] = next()
	}
	for i := range centers.Data {
		centers.Data[i] = next()
	}
	for q := 0; q < c.k; q++ {
		switch {
		case c.onPoints && q%3 == 0:
			copy(centers.Row(q), pts.Row((q*7)%c.n))
		case c.dup && q%2 == 1:
			copy(centers.Row(q), centers.Row(q-1))
		}
	}
	if c.nonFinite {
		pts.Row(1)[0], pts.Row(4)[c.d-1], pts.Row(9)[0] = math.NaN(), math.Inf(1), math.Inf(-1)
		centers.Row(2)[0], centers.Row(c.k - 1)[c.d-1] = math.NaN(), math.Inf(1)
	}
	return pts, centers
}

// pairwiseArgmin is the reference of the bit-level check: the lowest-index
// argmin of every PairwiseSqDist row and its distance, found the way the
// tile finds it (from +Inf, strict less-than, so a row of NaNs gives
// center 0 at +Inf).
func pairwiseArgmin[T Float](pts, centers *Mat[T], cNorms []T) ([]int32, []T) {
	n, k := pts.Rows, centers.Rows
	out := make([]T, n*k)
	PairwiseSqDist(pts, centers, nil, cNorms, out)
	idx, d2 := make([]int32, n), make([]T, n)
	for i := 0; i < n; i++ {
		best, bestD := 0, T(math.Inf(1))
		for c, v := range out[i*k : (i+1)*k] {
			if v < bestD {
				best, bestD = c, v
			}
		}
		idx[i], d2[i] = int32(best), bestD
	}
	return idx, d2
}

// sameBits reports whether a and b have the same bits, counting any two
// NaNs as equal: a NaN's payload carries no result.
func sameBits[T Float](a, b T) bool {
	x, y := float64(a), float64(b)
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkTileBits asserts that NearestBlocked, VisitNearest and
// NearestBlockedRows return exactly pairwiseArgmin's answer, distance bits
// included, on the active kernels of T.
func checkTileBits[T Float](t *testing.T, label string, c tileCase) {
	t.Helper()
	pts64, ctr64 := c.data()
	pts, centers := Convert[T](pts64), Convert[T](ctr64)
	cNorms := RowSqNorms(centers, nil)
	wantIdx, wantD2 := pairwiseArgmin(pts, centers, cNorms)
	sc := GetScratch[T]()
	defer sc.Release()

	idx, d2 := make([]int32, c.n), make([]T, c.n)
	NearestBlocked(pts, centers, cNorms, idx, d2, sc)
	for i := range idx {
		if idx[i] != wantIdx[i] || !sameBits(d2[i], wantD2[i]) {
			t.Fatalf("%s %v: NearestBlocked point %d = (%d, %v), PairwiseSqDist argmin (%d, %v)",
				label, c, i, idx[i], d2[i], wantIdx[i], wantD2[i])
		}
	}
	VisitNearest(pts, centers, cNorms, 0, c.n, sc, func(i int, ix int32, v float64) {
		if ix != wantIdx[i] || math.Float64bits(v) != math.Float64bits(float64(wantD2[i])) {
			t.Fatalf("%s %v: VisitNearest point %d = (%d, %v), PairwiseSqDist argmin (%d, %v)",
				label, c, i, ix, v, wantIdx[i], wantD2[i])
		}
	})
	rows := make([][]float64, c.n)
	for i := range rows {
		rows[i] = pts64.Row(i)
	}
	out := make([]int, c.n)
	NearestBlockedRows(rows, centers, cNorms, out, sc)
	for i := range out {
		if out[i] != int(wantIdx[i]) {
			t.Fatalf("%s %v: NearestBlockedRows point %d = %d, PairwiseSqDist argmin %d",
				label, c, i, out[i], wantIdx[i])
		}
	}
}

// TestTileMatchesPairwise is the bit-level check of every tile path: the
// tile computes the same per-pair values as PairwiseSqDist, so for float64
// and every float32 tier in this binary, the three tile entry points must
// return PairwiseSqDist's lowest-index argmin with identical distance bits.
func TestTileMatchesPairwise(t *testing.T) {
	defer SetF32Tier(ActiveF32Tier())
	for _, c := range tileCases() {
		checkTileBits[float64](t, "f64", c)
		for _, tier := range F32Tiers() {
			if !SetF32Tier(tier) {
				t.Fatalf("SetF32Tier(%v) failed though listed available", tier)
			}
			checkTileBits[float32](t, "f32/"+tier.String(), c)
		}
	}
}

// TestPanelTileMatchesGoTile compares the float64 panel tile with the 2×4
// Go tile directly, through nearestTile, on every shape of the bit-level
// check.
func TestPanelTileMatchesGoTile(t *testing.T) {
	if kernels64.panel == nil {
		t.Skip("no panel kernel in this build or on this CPU")
	}
	goTile := kernels64
	goTile.panel = nil
	sc := GetScratch[float64]()
	defer sc.Release()
	for _, c := range tileCases() {
		pts, centers := c.data()
		cNorms := RowSqNorms(centers, nil)
		for lo := 0; lo < c.n; lo += tilePoints {
			hi := min(lo+tilePoints, c.n)
			wantIdx, wantD2 := make([]int32, hi-lo), make([]float64, hi-lo)
			nearestTile(&goTile, pts, lo, hi, centers, cNorms, wantIdx, wantD2, sc)
			gotIdx, gotD2 := make([]int32, hi-lo), make([]float64, hi-lo)
			nearestTile(&kernels64, pts, lo, hi, centers, cNorms, gotIdx, gotD2, sc)
			for i := range wantIdx {
				if gotIdx[i] != wantIdx[i] || !sameBits(gotD2[i], wantD2[i]) {
					t.Fatalf("%v: point %d: panel (%d, %v), Go tile (%d, %v)",
						c, lo+i, gotIdx[i], gotD2[i], wantIdx[i], wantD2[i])
				}
			}
		}
	}
}

// checkPackBits asserts that both panel packers lay out every case's
// points as documented (coordinate j of point i at
// panels[(i/lanes)*lanes*d + j*lanes + i%lanes], padded lanes zero) and
// write RowSqNorms' norm bits.
func checkPackBits[T Float](t *testing.T, kt *kernels[T], c tileCase) {
	t.Helper()
	pts64, _ := c.data()
	pts := Convert[T](pts64)
	norms := RowSqNorms(pts, nil)
	rows := make([][]float64, c.n)
	for i := range rows {
		rows[i] = pts64.Row(i)
	}
	sc := new(Scratch[T])
	for lo := 0; lo < c.n; lo += tilePoints {
		hi := min(lo+tilePoints, c.n)
		for _, src := range []string{"packTile", "packRows"} {
			var panels, pn []T
			if src == "packTile" {
				panels, pn = packTile(kt, pts, lo, hi, sc)
			} else {
				panels, pn = packRows(kt, rows[lo:hi], c.d, sc)
			}
			lanes := kt.lanes
			for i := 0; i < len(pn); i++ {
				var wantN T
				if lo+i < hi {
					wantN = norms[lo+i]
				}
				if !sameBits(pn[i], wantN) {
					t.Fatalf("%s %v: point %d norm %v, want %v", src, c, lo+i, pn[i], wantN)
				}
				for j := 0; j < c.d; j++ {
					var want T
					if lo+i < hi {
						want = pts.Row(lo + i)[j]
					}
					if got := panels[(i/lanes)*lanes*c.d+j*lanes+i%lanes]; !sameBits(got, want) {
						t.Fatalf("%s %v: point %d coordinate %d = %v, want %v", src, c, lo+i, j, got, want)
					}
				}
			}
		}
	}
}

// TestPanelPackers pins both panel packers of every panel kernel in this
// binary to the layout and norms the kernels assume.
func TestPanelPackers(t *testing.T) {
	if kernels64.panel == nil {
		t.Skip("no panel kernel in this build or on this CPU")
	}
	for _, c := range tileCases() {
		checkPackBits(t, &kernels64, c)
		checkPackBits(t, kernels32[F32TierAVX2], c)
	}
}

// TestNearestBlockedRowsDimMismatch pins the row-length check the panel
// packer's raw gathers rely on: a point of the wrong dimension panics on
// every tile path instead of being read past its end.
func TestNearestBlockedRowsDimMismatch(t *testing.T) {
	defer SetF32Tier(ActiveF32Tier())
	centers := FromRows([][]float64{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}, {3, 3, 3}})
	for _, rows := range [][][]float64{{{1, 2, 3}, {1, 2}}, {{1, 2, 3, 4}}} {
		expectPanic(t, "f64", func() {
			NearestBlockedRows(rows, centers, RowSqNorms(centers, nil), make([]int, len(rows)), GetScratch[float64]())
		})
		ctr32 := Convert[float32](centers)
		for _, tier := range F32Tiers() {
			SetF32Tier(tier)
			expectPanic(t, "f32/"+tier.String(), func() {
				NearestBlockedRows(rows, ctr32, RowSqNorms(ctr32, nil), make([]int, len(rows)), GetScratch[float32]())
			})
		}
	}
}

func expectPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic on a point of the wrong dimension", label)
		}
	}()
	f()
}

// TestPanelKernelSelected fails when the probe reports AVX2+FMA but the
// tile would not run the panel kernels — or when it runs them without the
// probe (km_purego, other architectures): golden_test.go's default leg
// must exercise the panel path and its km_purego leg the Go tile.
func TestPanelKernelSelected(t *testing.T) {
	if got := kernels64.panel != nil; got != hasAVX2FMA {
		t.Fatalf("float64 panel kernel selected = %v, probe reports AVX2+FMA = %v", got, hasAVX2FMA)
	}
	if hasAVX2FMA {
		if bestF32Tier() != F32TierAVX2 || kernels32[F32TierAVX2].panel == nil {
			t.Fatalf("float32: best tier %v, AVX2 panel kernel set = %v", bestF32Tier(), kernels32[F32TierAVX2].panel != nil)
		}
	}
	for tier, kt := range kernels32 {
		if F32Tier(tier) != F32TierAVX2 && kt.panel != nil {
			t.Fatalf("float32 tier %v has a panel kernel", F32Tier(tier))
		}
	}
}
