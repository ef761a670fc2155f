package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randMatrix fills a rows×cols matrix with standard normal values from a
// fixed-seed source, optionally pulling rows toward a few cluster centers so
// nearest-center structure resembles real workloads.
func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// naiveNearest is the reference path the blocked engine must match.
func naiveNearest(pts, centers *Matrix) ([]int32, []float64) {
	idx := make([]int32, pts.Rows)
	d2 := make([]float64, pts.Rows)
	for i := 0; i < pts.Rows; i++ {
		c, d := Nearest(pts.Row(i), centers)
		idx[i] = int32(c)
		d2[i] = d
	}
	return idx, d2
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// closeD2 compares a blocked squared distance against the naive one. The
// expansion ‖x‖²+‖c‖²−2⟨x,c⟩ carries absolute error proportional to the
// norms (catastrophic cancellation when x ≈ c), so tiny distances are
// compared on an absolute scale set by the operand magnitudes while everything
// else must agree to 1e-9 relative.
func closeD2(got, want, normScale float64) bool {
	if relDiff(got, want) <= 1e-9 {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(1, normScale)
}

// TestNearestBlockedEquivalence asserts the blocked kernels return the same
// assignments as the naive SqDistBound scan across the paper's
// dimensionalities, with squared distances within 1e-9 relative.
func TestNearestBlockedEquivalence(t *testing.T) {
	for _, dim := range []int{1, 3, 15, 58, 128} {
		for _, k := range []int{1, 2, 7, 16, 33, 100} {
			t.Run(fmt.Sprintf("d=%d_k=%d", dim, k), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(dim*1000 + k)))
				pts := randMatrix(r, 517, dim) // not a multiple of tilePoints
				centers := randMatrix(r, k, dim)
				wantIdx, wantD2 := naiveNearest(pts, centers)

				cNorms := RowSqNorms(centers, nil)
				gotIdx := make([]int32, pts.Rows)
				gotD2 := make([]float64, pts.Rows)
				sc := GetScratch[float64]()
				defer sc.Release()
				NearestBlocked(pts, centers, cNorms, gotIdx, gotD2, sc)

				for i := range wantIdx {
					if gotIdx[i] != wantIdx[i] {
						t.Fatalf("point %d: blocked nearest %d, naive %d (d2 %v vs %v)",
							i, gotIdx[i], wantIdx[i], gotD2[i], wantD2[i])
					}
					scale := SqNorm(pts.Row(i)) + cNorms[gotIdx[i]]
					if !closeD2(gotD2[i], wantD2[i], scale) {
						t.Fatalf("point %d: blocked d²=%v naive d²=%v", i, gotD2[i], wantD2[i])
					}
				}
			})
		}
	}
}

// TestNearestBlockedRows checks the gather variant used by PredictBatch.
func TestNearestBlockedRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n, dim, k = 300, 58, 32
	pts := randMatrix(r, n, dim)
	centers := randMatrix(r, k, dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = pts.Row(i)
	}
	wantIdx, _ := naiveNearest(pts, centers)

	out := make([]int, n)
	sc := GetScratch[float64]()
	defer sc.Release()
	NearestBlockedRows(rows, centers, RowSqNorms(centers, nil), out, sc)
	for i := range out {
		if out[i] != int(wantIdx[i]) {
			t.Fatalf("point %d: rows variant nearest %d, naive %d", i, out[i], wantIdx[i])
		}
	}
}

// TestPairwiseSqDist checks the full-block kernel against SqDist pair by
// pair.
func TestPairwiseSqDist(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 5, 58} {
		pts := randMatrix(r, 37, dim)
		centers := randMatrix(r, 13, dim)
		out := make([]float64, pts.Rows*centers.Rows)
		PairwiseSqDist(pts, centers, nil, nil, out)
		for i := 0; i < pts.Rows; i++ {
			for j := 0; j < centers.Rows; j++ {
				want := SqDist(pts.Row(i), centers.Row(j))
				scale := SqNorm(pts.Row(i)) + SqNorm(centers.Row(j))
				if !closeD2(out[i*centers.Rows+j], want, scale) {
					t.Fatalf("d=%d pair (%d,%d): pairwise %v, SqDist %v", dim, i, j, out[i*centers.Rows+j], want)
				}
			}
		}
	}
}

// TestSqDistNorm checks the cached-norm single-pair kernel.
func TestSqDistNorm(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, dim := range []int{1, 3, 17, 58} {
		for trial := 0; trial < 50; trial++ {
			a := make([]float64, dim)
			b := make([]float64, dim)
			for i := range a {
				a[i] = r.NormFloat64()
				b[i] = r.NormFloat64()
			}
			got := SqDistNorm(a, b, SqNorm(a), SqNorm(b))
			if !closeD2(got, SqDist(a, b), SqNorm(a)+SqNorm(b)) {
				t.Fatalf("d=%d: SqDistNorm %v, SqDist %v", dim, got, SqDist(a, b))
			}
		}
	}
	// Cancellation: identical vectors must clamp to exactly 0.
	v := []float64{1.25e8, -3.5e7, 9.125e6}
	if got := SqDistNorm(v, v, SqNorm(v), SqNorm(v)); got != 0 {
		t.Fatalf("SqDistNorm(v, v) = %v, want 0", got)
	}
}

// TestNearestBlockedRagged fuzzes tile-boundary shapes: n and k straddling
// multiples of the tile sizes (the center tile's at the trial's dimension)
// and of the 2×4 micro-kernel, so every tail path (odd point, <4 center
// group, partial tiles) is exercised.
func TestNearestBlockedRagged(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sc := GetScratch[float64]()
	defer sc.Release()
	for trial := 0; trial < 60; trial++ {
		dim := 1 + r.Intn(40)
		n := 1 + r.Intn(2*tilePoints+3)
		k := 1 + r.Intn(2*centerTile[float64](dim)+3)
		pts := randMatrix(r, n, dim)
		centers := randMatrix(r, k, dim)
		wantIdx, wantD2 := naiveNearest(pts, centers)
		gotIdx := make([]int32, n)
		gotD2 := make([]float64, n)
		NearestBlocked(pts, centers, RowSqNorms(centers, nil), gotIdx, gotD2, sc)
		for i := 0; i < n; i++ {
			scale := SqNorm(pts.Row(i)) + SqNorm(centers.Row(int(gotIdx[i])))
			if gotIdx[i] != wantIdx[i] || !closeD2(gotD2[i], wantD2[i], scale) {
				t.Fatalf("trial %d (n=%d k=%d d=%d) point %d: blocked (%d, %v) naive (%d, %v)",
					trial, n, k, dim, i, gotIdx[i], gotD2[i], wantIdx[i], wantD2[i])
			}
		}
	}
}

// TestNearestBlockedDuplicateCenters pins the tie rule: equal distances
// resolve to the lowest center index, matching the naive scan.
func TestNearestBlockedDuplicateCenters(t *testing.T) {
	pts := FromRows([][]float64{{1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}})
	row := []float64{1, 1, 1, 1, 1}
	centers := FromRows([][]float64{row, row, row, row, row, row, row, row, row})
	idx := make([]int32, pts.Rows)
	d2 := make([]float64, pts.Rows)
	sc := GetScratch[float64]()
	defer sc.Release()
	NearestBlocked(pts, centers, RowSqNorms(centers, nil), idx, d2, sc)
	for i, got := range idx {
		if got != 0 {
			t.Fatalf("point %d: tie resolved to center %d, want 0", i, got)
		}
	}
}

func TestMatrixReserve(t *testing.T) {
	m := NewMatrix(0, 3)
	m.Reserve(100)
	if cap(m.Data) < 300 {
		t.Fatalf("Reserve(100): cap %d, want ≥ 300", cap(m.Data))
	}
	ptr := &m.Data[:1][0]
	for i := 0; i < 100; i++ {
		m.AppendRow([]float64{float64(i), 0, 0})
	}
	if &m.Data[0] != ptr {
		t.Fatal("AppendRow reallocated despite Reserve")
	}
	if m.Rows != 100 || m.Row(99)[0] != 99 {
		t.Fatalf("unexpected contents after Reserve+AppendRow: rows=%d", m.Rows)
	}
	// Reserve on an empty matrix with unknown Cols is a no-op.
	var z Matrix
	z.Reserve(10)
	if z.Data != nil {
		t.Fatal("Reserve allocated with Cols == 0")
	}
}

func TestUseBlockedOverride(t *testing.T) {
	defer SetKernel(KernelAuto)
	SetKernel(KernelNaive)
	if UseBlocked(1000, 1000) {
		t.Fatal("KernelNaive override ignored")
	}
	SetKernel(KernelBlocked)
	if !UseBlocked(1, 1) {
		t.Fatal("KernelBlocked override ignored")
	}
	SetKernel(KernelAuto)
	if UseBlocked(2, 3) {
		t.Fatal("tiny workload should stay on the naive scan")
	}
	if !UseBlocked(32, 58) {
		t.Fatal("k=32 d=58 should use the blocked engine")
	}
}

// BenchmarkNearestCrossover measures naive vs blocked across (k, d) to
// justify the UseBlocked constants. Run with:
//
//	go test ./internal/geom -bench=NearestCrossover -benchtime=100x
func BenchmarkNearestCrossover(b *testing.B) {
	for _, dim := range []int{3, 15, 58, 128} {
		for _, k := range []int{4, 8, 16, 32, 64, 128} {
			r := rand.New(rand.NewSource(int64(dim + k)))
			pts := randMatrix(r, 2048, dim)
			centers := randMatrix(r, k, dim)
			b.Run(fmt.Sprintf("naive/d=%d/k=%d", dim, k), func(b *testing.B) {
				b.SetBytes(int64(2048 * dim * 8))
				for i := 0; i < b.N; i++ {
					for p := 0; p < pts.Rows; p++ {
						Nearest(pts.Row(p), centers)
					}
				}
			})
			b.Run(fmt.Sprintf("blocked/d=%d/k=%d", dim, k), func(b *testing.B) {
				cNorms := RowSqNorms(centers, nil)
				idx := make([]int32, pts.Rows)
				d2 := make([]float64, pts.Rows)
				sc := GetScratch[float64]()
				defer sc.Release()
				b.SetBytes(int64(2048 * dim * 8))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					NearestBlocked(pts, centers, cNorms, idx, d2, sc)
				}
			})
		}
	}
}
