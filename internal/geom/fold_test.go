package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// foldGroups folds the candidate groups cands[starts[j]:starts[j+1]] into a
// fresh D² cache of ds, in order, and returns the nearest rows the folds
// recorded.
func foldGroups[T Float](ds *Set[T], cands *Mat[T], starts []int) []int32 {
	n := ds.N()
	d2, near := make([]float64, n), make([]int32, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for j, lo := range starts {
		hi := cands.Rows
		if j+1 < len(starts) {
			hi = starts[j+1]
		}
		g := cands.RowRange(lo, hi)
		FoldNearest(ds, d2, near, 0, n, &g, lo)
	}
	return near
}

// scanNearest returns every point's nearest candidate by one scan of Visit
// over all the candidates, the lowest row on ties.
func scanNearest[T Float](ds *Set[T], cands *Mat[T]) []int32 {
	out := make([]int32, ds.N())
	Visit(ds.X, cands, RowSqNorms(cands, nil), 0, ds.N(), func(i int, idx int32, _ float64) { out[i] = idx })
	return out
}

// exactNearest returns every point's nearest candidate by exact float64
// distances, the lowest row on ties: the argmin itself, for data whose
// distances every kernel computes exactly.
func exactNearest(pts, cands *Matrix) []int32 {
	out := make([]int32, pts.Rows)
	for i := range out {
		best := math.Inf(1)
		for c := 0; c < cands.Rows; c++ {
			if d := SqDist(pts.Row(i), cands.Row(c)); d < best {
				best, out[i] = d, int32(c)
			}
		}
	}
	return out
}

// The rows FoldNearest records, after every candidate group is folded in
// order, are each point's nearest candidate: what a full nearest scan over
// all candidates at once returns, the lower row on ties. The groups are
// below and above UseBlocked's crossover, so folds of both engines meet in
// one cache.
//
// The grid case uses small integer coordinates and dyadic weights, so every
// kernel of either precision computes every distance and weighted entry
// exactly: ties are real ties, candidate rows repeat within a group and
// across groups of different engines, and the recorded rows must equal the
// exact argmin. The Gaussian case has no near-ties and is held to Visit's
// scan, the Step 7 oracle's. Both run unweighted and weighted, in float64
// and in float32 (every available float32 tier), with the engine chosen by
// the crossover and pinned either way.
func TestFoldNearestRecordsNearestRow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	grid := NewMatrix(517, 3)
	for i := range grid.Data {
		grid.Data[i] = float64(r.Intn(8))
	}
	gauss := randMatrix(r, 517, 4)
	pick := func(pts *Matrix, k int) *Matrix {
		c := NewMatrix(k, pts.Cols)
		for j := 0; j < k; j++ {
			copy(c.Row(j), pts.Row(r.Intn(pts.Rows)))
		}
		return c
	}
	// The long groups run past a float32 center tile at their dimension,
	// the larger of the two precisions' tiles, so their blocked folds cross
	// a center tile boundary in both and end in a ragged tile.
	//
	// d = 3: groups of 1, 2 and 5 rows scan pair by pair, 6 rows and the
	// long group take the blocked engine, and the last row scans pair by
	// pair again. Row 9 repeats row 1 (scalar, then blocked), row 20
	// repeats row 15 (one blocked group), and the last row repeats the one
	// three before it (blocked, then scalar).
	gridLong := centerTile[float32](3) + 5
	gridCands := pick(grid, 14+gridLong+1)
	gridLast := gridCands.Rows - 1
	copy(gridCands.Row(9), gridCands.Row(1))
	copy(gridCands.Row(20), gridCands.Row(15))
	copy(gridCands.Row(gridLast), gridCands.Row(gridLast-3))
	gridStarts := []int{0, 1, 3, 8, 14, gridLast}
	// d = 4: groups of 1 and 3 rows scan pair by pair, 4 rows and the long
	// group take the blocked engine, and a last group of 2 scans pair by
	// pair again. There are more candidates than points, so they are drawn
	// from the same distribution instead of picked, and none repeats.
	gaussLong := centerTile[float32](4) + 2
	gaussCands := randMatrix(r, 8+gaussLong+2, 4)
	gaussStarts := []int{0, 1, 4, 8, 8 + gaussLong}

	weights := make([]float64, 517)
	for i := range weights {
		weights[i] = 0.25 * float64(1+i%7)
	}
	defer SetKernel(KernelAuto)
	defer SetF32Tier(ActiveF32Tier())
	for _, kernel := range []KernelSelect{KernelAuto, KernelNaive, KernelBlocked} {
		SetKernel(kernel)
		for _, weighted := range []bool{false, true} {
			gridSet, gaussSet := NewDataset(grid), NewDataset(gauss)
			if weighted {
				gridSet.Weight, gaussSet.Weight = weights, weights
			}
			name := fmt.Sprintf("kernel=%d/weighted=%v", kernel, weighted)
			want := exactNearest(grid, gridCands)
			requireSameRows(t, name+"/grid/f64", foldGroups(gridSet, gridCands, gridStarts), want)
			requireSameRows(t, name+"/gauss/f64", foldGroups(gaussSet, gaussCands, gaussStarts), scanNearest(gaussSet, gaussCands))
			for _, asm := range asmVariants(t) {
				SetF32Tier(asmTier(asm))
				name32 := fmt.Sprintf("%s/f32 asm=%v", name, asm)
				grid32, gauss32 := ConvertSet[float32](gridSet), ConvertSet[float32](gaussSet)
				gridC32, gaussC32 := Convert[float32](gridCands), Convert[float32](gaussCands)
				requireSameRows(t, name32+"/grid", foldGroups(grid32, gridC32, gridStarts), want)
				requireSameRows(t, name32+"/gauss", foldGroups(gauss32, gaussC32, gaussStarts), scanNearest(gauss32, gaussC32))
			}
		}
	}
}

func requireSameRows(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d recorded candidate %d, its nearest is %d", what, i, got[i], want[i])
		}
	}
}

// FoldPair reports the row its entry came from: NearestPair's on a first
// fold, the lower row of a tie within the group, and -1 when the entry is
// already 0 or no center is nearer (a tie with the entry keeps it).
func TestFoldPairReportsRow(t *testing.T) {
	centers := FromRows([][]float64{{3, 0}, {1, 0}, {1, 0}, {0, 2}})
	cNorms := RowSqNorms(centers, nil)
	p := []float64{0, 0}
	if d, row := FoldPair(p, 2, math.Inf(1), centers, cNorms); d != 2 || row != 1 {
		t.Fatalf("first fold: entry %v from row %d, want 2 from row 1", d, row)
	}
	if d, row := FoldPair(p, 2, 8, centers, cNorms); d != 2 || row != 1 {
		t.Fatalf("lowering fold: entry %v from row %d, want 2 from row 1", d, row)
	}
	if d, row := FoldPair(p, 2, 2, centers, cNorms); d != 2 || row != -1 {
		t.Fatalf("tie with the entry: entry %v from row %d, want 2 kept (-1)", d, row)
	}
	if d, row := FoldPair(p, 2, 0, centers, cNorms); d != 0 || row != -1 {
		t.Fatalf("zero entry: entry %v from row %d, want 0 kept (-1)", d, row)
	}
}
