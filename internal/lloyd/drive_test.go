package lloyd

import (
	"math"
	"slices"
	"testing"

	"kmeansll/internal/geom"
)

// A run stopped by MaxIter reports the cost and the assignment of the
// centers it returns, for every method and in both storage precisions: Cost
// is Cost of the returned centers, bit for bit, and Assign is Assign's.
func TestCappedRunDescribesReturnedCenters(t *testing.T) {
	raw, _ := blobs(t, 6, 150, 4, 2, 23)
	ds64, ds32 := f32Pair(raw)
	init := geom.NewMatrix(6, 4) // six points of one blob: far from converged after 3 iterations
	for c := 0; c < init.Rows; c++ {
		copy(init.Row(c), ds64.Point(c))
	}
	for _, m := range []Method{Naive, Elkan, Hamerly} {
		requireCappedExact(t, ds64, init, m)
		requireCappedExact(t, ds32, init, m)
	}
}

func requireCappedExact[T geom.Float](t *testing.T, ds *geom.Set[T], init *geom.Matrix, m Method) {
	t.Helper()
	const par = 2
	res := Run(ds, init, Config{MaxIter: 3, Parallelism: par, Method: m})
	if res.Converged || res.Iters != 3 {
		t.Fatalf("%v: %d iterations, converged=%v; the case needs a run stopped by MaxIter", m, res.Iters, res.Converged)
	}
	snap := geom.Convert[T](res.Centers)
	if want := Cost(ds, snap, par); math.Float64bits(res.Cost) != math.Float64bits(want) {
		t.Fatalf("%v: Cost %v, but the returned centers cost %v", m, res.Cost, want)
	}
	want, _ := Assign(ds, snap, par)
	if !slices.Equal(res.Assign, want) {
		t.Fatalf("%v: the assignment is not the returned centers' (%d of %d points differ)", m, countDiff(res.Assign, want), len(want))
	}
}

// countDiff counts the positions where a and b differ, counting a length
// difference as that many positions.
func countDiff(a, b []int32) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
