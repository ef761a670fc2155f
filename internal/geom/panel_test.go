package geom

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tileCase is one shape of the bit-level tile check. grid draws small
// integers instead of unit-scale reals, so the expansion is exact and
// distinct centers tie; far offsets every coordinate by 1e3, so the
// expansion cancels and often clamps; dup repeats every other center;
// onPoints copies points into centers, so those pairs are at distance 0
// (or clamp to it); nonFinite plants NaN, +Inf and −Inf coordinates, whose
// NaN expansions must pass the clamp and lose every comparison; negZero
// writes −0 over every fifth coordinate and over a whole point and a
// whole center.
type tileCase struct {
	n, k, d                                      int
	grid, far, dup, onPoints, nonFinite, negZero bool
}

func (c tileCase) String() string {
	return fmt.Sprintf("n=%d_k=%d_d=%d_grid=%v_far=%v_dup=%v_on=%v_nonfinite=%v_negzero=%v",
		c.n, c.k, c.d, c.grid, c.far, c.dup, c.onPoints, c.nonFinite, c.negZero)
}

// tileCases covers n off every multiple of 4, 8, 16 and 128, k off every
// multiple of 4 and of the center tile at d, and d from 1 past 64 with
// d mod 8 ≠ 0, plus the duplicate-center, zero-distance, exact-tie,
// clamping, non-finite and −0 shapes. Every k past a tile is past the
// float32 tile, the larger of the two precisions' at any d, so those scans
// cross a center tile boundary in both and end in a ragged tile.
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
			tileCase{n: 21, k: over(d, 3), d: d, nonFinite: true},
			tileCase{n: 45, k: over(d, 2), d: d, dup: true, negZero: true})
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
	if c.negZero {
		negZero := math.Copysign(0, -1)
		for _, m := range []*Matrix{pts, centers} {
			for i := 0; i < len(m.Data); i += 5 {
				m.Data[i] = negZero
			}
			for j := range m.Row(1) {
				m.Row(1)[j] = negZero
			}
		}
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

// namedRung is a panel rung under test.
type namedRung[T Float] struct {
	name string
	rung panelRung[T]
}

// runnableRungs returns every panel rung of T this runner can execute:
// avx2 where the probe found AVX2+FMA, avx512 where it found AVX-512F.
func runnableRungs[T Float](avx2, avx512 panelRung[T]) []namedRung[T] {
	var rungs []namedRung[T]
	if hasAVX2FMA {
		rungs = append(rungs, namedRung[T]{"avx2", avx2})
	}
	if hasAVX512 {
		rungs = append(rungs, namedRung[T]{"avx512", avx512})
	}
	return rungs
}

// withRung returns a copy of the table kt that tiles through rung.
func withRung[T Float](kt *kernels[T], rung panelRung[T]) *kernels[T] {
	c := *kt
	c.panelRung = rung
	return &c
}

// checkTablesAgree asserts that the tables got and want return the same
// nearest indices and distance bits through nearestTile, tile by tile, and
// the same indices through nearestRows.
func checkTablesAgree[T Float](t *testing.T, label string, got, want *kernels[T], c tileCase) {
	t.Helper()
	pts64, ctr64 := c.data()
	pts, centers := Convert[T](pts64), Convert[T](ctr64)
	cNorms := make([]T, centers.Rows)
	for i := range cNorms {
		cNorms[i] = want.sqNorm(centers.Row(i))
	}
	sc := new(Scratch[T])
	for lo := 0; lo < c.n; lo += tilePoints {
		hi := min(lo+tilePoints, c.n)
		wantIdx, wantD2 := make([]int32, hi-lo), make([]T, hi-lo)
		nearestTile(want, pts, lo, hi, centers, cNorms, wantIdx, wantD2, sc)
		gotIdx, gotD2 := make([]int32, hi-lo), make([]T, hi-lo)
		nearestTile(got, pts, lo, hi, centers, cNorms, gotIdx, gotD2, sc)
		for i := range wantIdx {
			if gotIdx[i] != wantIdx[i] || !sameBits(gotD2[i], wantD2[i]) {
				t.Fatalf("%s %v: nearestTile point %d = (%d, %v), want (%d, %v)",
					label, c, lo+i, gotIdx[i], gotD2[i], wantIdx[i], wantD2[i])
			}
		}
	}
	rows := make([][]float64, c.n)
	for i := range rows {
		rows[i] = pts64.Row(i)
	}
	wantOut, gotOut := make([]int, c.n), make([]int, c.n)
	nearestRows(want, rows, centers, cNorms, wantOut, sc)
	nearestRows(got, rows, centers, cNorms, gotOut, sc)
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("%s %v: nearestRows point %d = %d, want %d", label, c, i, gotOut[i], wantOut[i])
		}
	}
}

// TestPanelTileMatchesGoTile holds every panel rung this runner can
// execute to its reference, bit for bit, on every shape of the bit-level
// check: each float64 rung to the 2×4 Go tile, whose order it replays, and
// each float32 rung to the AVX2 panel, whose order the AVX-512 rung
// replays (TestTileMatchesPairwise holds the selected rung to
// dot1x4f32avx's row kernel). The test builds the tables it compares, so
// a CPU with AVX-512 checks its AVX2 rung as well.
func TestPanelTileMatchesGoTile(t *testing.T) {
	rungs64 := runnableRungs(avx2Rung64, avx512Rung64)
	if len(rungs64) == 0 {
		t.Skip("no panel kernel in this build or on this CPU")
	}
	goTile := withRung(&kernels64, panelRung[float64]{})
	avx2Tile32 := withRung(kernels32[F32TierAVX2], avx2Rung32)
	for _, c := range tileCases() {
		for _, r := range rungs64 {
			checkTablesAgree(t, "f64/"+r.name, withRung(&kernels64, r.rung), goTile, c)
		}
		for _, r := range runnableRungs(avx2Rung32, avx512Rung32) {
			if r.name != "avx2" {
				checkTablesAgree(t, "f32/"+r.name, withRung(kernels32[F32TierAVX2], r.rung), avx2Tile32, c)
			}
		}
	}
}

// packRef is the Go reference of a panel packer: the points of src (rows
// of d coordinates) in lanes-point coordinate-major panels, coordinate j
// of point i at panels[(i/lanes)*lanes*d + j*lanes + i%lanes], padded
// lanes zero, and each point's squared norm in the table's order.
func packRef[T Float](kt *kernels[T], src *Mat[T]) (panels, pn []T) {
	d, lanes := src.Cols, kt.lanes
	n := (src.Rows + lanes - 1) / lanes * lanes
	panels, pn = make([]T, n*d), make([]T, n)
	for i := 0; i < src.Rows; i++ {
		pn[i] = kt.sqNorm(src.Row(i))
		for j, v := range src.Row(i) {
			panels[(i/lanes)*lanes*d+j*lanes+i%lanes] = v
		}
	}
	return panels, pn
}

// checkPackBits asserts that both packers of the table kt write exactly
// packRef's panels and norms, padding included: the buffers are filled
// with a NaN of a payload no input carries first, so a lane or norm the
// packer leaves unwritten fails.
func checkPackBits[T Float](t *testing.T, label string, kt *kernels[T], c tileCase) {
	t.Helper()
	pts64, _ := c.data()
	pts := Convert[T](pts64)
	rows := make([][]float64, c.n)
	for i := range rows {
		rows[i] = pts64.Row(i)
	}
	pattern := T(math.Float32frombits(0x7fc0dead))
	sc := new(Scratch[T])
	for lo := 0; lo < c.n; lo += tilePoints {
		hi := min(lo+tilePoints, c.n)
		view := pts.RowRange(lo, hi)
		wantPanels, wantPn := packRef(kt, &view)
		for _, src := range []string{"packTile", "packRows"} {
			sc.panels, sc.pn = make([]T, len(wantPanels)), make([]T, len(wantPn))
			for i := range sc.panels {
				sc.panels[i] = pattern
			}
			for i := range sc.pn {
				sc.pn[i] = pattern
			}
			var panels, pn []T
			if src == "packTile" {
				panels, pn = packTile(kt, pts, lo, hi, sc)
			} else {
				panels, pn = packRows(kt, rows[lo:hi], c.d, sc)
			}
			for i := range wantPn {
				if isPattern(pn[i], pattern) || !sameBits(pn[i], wantPn[i]) {
					t.Fatalf("%s %s %v: point %d norm %v, want %v", label, src, c, lo+i, pn[i], wantPn[i])
				}
			}
			for i := range wantPanels {
				if isPattern(panels[i], pattern) || !sameBits(panels[i], wantPanels[i]) {
					t.Fatalf("%s %s %v: panel slot %d (tile point %d) = %v, want %v",
						label, src, c, i, i/(c.d*kt.lanes)*kt.lanes+i%kt.lanes, panels[i], wantPanels[i])
				}
			}
		}
	}
}

// isPattern reports whether v carries the fill pattern's exact bits.
func isPattern[T Float](v, pattern T) bool {
	return math.Float64bits(float64(v)) == math.Float64bits(float64(pattern))
}

// TestPanelPackers pins both packers of every panel rung this runner can
// execute to packRef's layout and norms.
func TestPanelPackers(t *testing.T) {
	rungs64 := runnableRungs(avx2Rung64, avx512Rung64)
	if len(rungs64) == 0 {
		t.Skip("no panel kernel in this build or on this CPU")
	}
	for _, c := range tileCases() {
		for _, r := range rungs64 {
			checkPackBits(t, "f64/"+r.name, withRung(&kernels64, r.rung), c)
		}
		for _, r := range runnableRungs(avx2Rung32, avx512Rung32) {
			checkPackBits(t, "f32/"+r.name, withRung(kernels32[F32TierAVX2], r.rung), c)
		}
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

// rungName names the panel rung a table tiles through: "avx512",
// "avx2", or "none" for the 2×4 Go tile.
func rungName[T Float](kt *kernels[T], avx2, avx512 panelRung[T]) string {
	same := func(r panelRung[T]) bool {
		ptr := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
		return kt.panel != nil && kt.lanes == r.lanes && ptr(kt.panel) == ptr(r.panel) &&
			ptr(kt.pack) == ptr(r.pack) && ptr(kt.packRows) == ptr(r.packRows)
	}
	switch {
	case kt.panel == nil:
		return "none"
	case same(avx512):
		return "avx512"
	case same(avx2):
		return "avx2"
	}
	return "mixed"
}

// TestPanelKernelSelected fails unless both precisions tile through the
// widest panel rung the probe reports: the AVX-512 tables exactly when it
// reports AVX-512F, the AVX2 tables when it reports AVX2+FMA alone, and
// the Go tile without either (km_purego, other architectures), so
// golden_test.go's default leg exercises the rung the runner has and its
// km_purego leg the Go tile. It logs the rung, so a runner without
// AVX-512 reads as such in the test output.
func TestPanelKernelSelected(t *testing.T) {
	want := "none"
	switch {
	case hasAVX512:
		want = "avx512"
	case hasAVX2FMA:
		want = "avx2"
	}
	got64 := rungName(&kernels64, avx2Rung64, avx512Rung64)
	got32 := rungName(kernels32[F32TierAVX2], avx2Rung32, avx512Rung32)
	t.Logf("panel rung: float64 %s (%d-point panels), float32 avx2 tier %s (%d-point panels); probe: AVX2+FMA %v, AVX-512F %v",
		got64, kernels64.lanes, got32, kernels32[F32TierAVX2].lanes, hasAVX2FMA, hasAVX512)
	if got64 != want {
		t.Fatalf("float64 panel rung %s, probe wants %s", got64, want)
	}
	if hasAVX2FMA {
		if bestF32Tier() != F32TierAVX2 || got32 != want {
			t.Fatalf("float32: best tier %v, AVX2 tier's panel rung %s, probe wants %s", bestF32Tier(), got32, want)
		}
	}
	for tier, kt := range kernels32 {
		if F32Tier(tier) != F32TierAVX2 && kt.panel != nil {
			t.Fatalf("float32 tier %v has a panel kernel", F32Tier(tier))
		}
	}
}

// BenchmarkPanelRungs times the nearest-center tile of every panel rung
// this runner can execute, through a table the benchmark builds, so a CPU
// with AVX-512 measures its AVX2 rung as well, at the shapes of fit-local
// (d = 16, k = 20), serve-quantize (d = 3, k = 256) and serve-bulk
// (d = 58, k = 32). ps/pair-coord is the time per (point, center,
// coordinate) triple, packing and argmin included. Run with:
//
//	go test ./internal/geom -run '^$' -bench PanelRungs -cpu 1
func BenchmarkPanelRungs(b *testing.B) {
	shapes := []struct{ d, k int }{{16, 20}, {3, 256}, {58, 32}}
	const n = 2048
	for _, s := range shapes {
		r := rand.New(rand.NewSource(int64(s.d*1000 + s.k)))
		pts, centers := randMatrix(r, n, s.d), randMatrix(r, s.k, s.d)
		pts32, centers32 := Convert[float32](pts), Convert[float32](centers)
		for _, rg := range runnableRungs(avx2Rung64, avx512Rung64) {
			b.Run(fmt.Sprintf("f64/%s/d=%d/k=%d", rg.name, s.d, s.k), func(b *testing.B) {
				benchTile(b, withRung(&kernels64, rg.rung), pts, centers)
			})
		}
		for _, rg := range runnableRungs(avx2Rung32, avx512Rung32) {
			b.Run(fmt.Sprintf("f32/%s/d=%d/k=%d", rg.name, s.d, s.k), func(b *testing.B) {
				benchTile(b, withRung(kernels32[F32TierAVX2], rg.rung), pts32, centers32)
			})
		}
	}
}

// benchTile runs nearestTile of kt over every point tile of pts.
func benchTile[T Float](b *testing.B, kt *kernels[T], pts, centers *Mat[T]) {
	cNorms := make([]T, centers.Rows)
	for i := range cNorms {
		cNorms[i] = kt.sqNorm(centers.Row(i))
	}
	idx, d2 := make([]int32, tilePoints), make([]T, tilePoints)
	sc := new(Scratch[T])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < pts.Rows; lo += tilePoints {
			hi := min(lo+tilePoints, pts.Rows)
			nearestTile(kt, pts, lo, hi, centers, cNorms, idx, d2, sc)
		}
	}
	pairs := float64(b.N) * float64(pts.Rows*centers.Rows*centers.Cols)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1e3/pairs, "ps/pair-coord")
}
