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

// The in-process backend keeps Step's buffers for the whole run: every
// Step after the first returns the same sums matrix and fills the same
// snapshot and per-chunk matrices, and each Step's sums and cost are a
// fresh backend's first Step's, bit for bit, so the reused buffers start
// every iteration from zero.
func TestStepReusesBuffers(t *testing.T) {
	raw, _ := blobs(t, 5, 120, 6, 2, 31)
	ds64, ds32 := f32Pair(raw)
	requireStepReuse(t, ds64)
	requireStepReuse(t, ds32)
}

func requireStepReuse[T geom.Float](t *testing.T, ds *geom.Set[T]) {
	t.Helper()
	a, b := geom.NewMatrix(5, ds.Dim()), geom.NewMatrix(5, ds.Dim())
	for c := 0; c < 5; c++ {
		geom.WidenRow(a.Row(c), ds.Point(c))
		geom.WidenRow(b.Row(c), ds.Point(100+c))
	}
	for _, par := range []int{1, 3} {
		p := &chunks[T]{ds: ds, parallelism: par}
		first, _, _ := p.Step(a)
		snap, part := p.snap, p.parts[0]
		for _, centers := range []*geom.Matrix{b, a, b} {
			got, gotPhi, _ := p.Step(centers)
			if got != first || p.snap != snap || p.parts[0] != part {
				t.Fatalf("Bits %d, Parallelism %d: Step made new buffers", geom.Bits[T](), par)
			}
			want, wantPhi := Step(ds, centers, par)
			if !slices.Equal(got.Data, want.Data) || math.Float64bits(gotPhi) != math.Float64bits(wantPhi) {
				t.Fatalf("Bits %d, Parallelism %d: a reused Step differs from a fresh one", geom.Bits[T](), par)
			}
		}
	}
}
