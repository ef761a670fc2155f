package lloyd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kmeansll/internal/geom"
)

// A run stopped by MaxIter reports the cost and the assignment of the
// centers it returns, for every exact method and for the Trimmed and
// Spherical variants, in both storage precisions: Cost is Cost of the
// returned centers bit for bit, and Assign is Assign's. Trimmed's outliers
// are the points those centers serve worst and its TrimmedCost is the
// rest's cost; Spherical's Cohesion is its points' cosine to their returned
// center.
func TestCappedRunDescribesReturnedCenters(t *testing.T) {
	raw, _ := blobs(t, 6, 150, 4, 2, 23)
	ds64, ds32 := f32Pair(raw)
	init := geom.NewMatrix(6, 4) // six points of one blob: far from converged after 3 iterations
	for c := 0; c < init.Rows; c++ {
		copy(init.Row(c), ds64.Point(c))
	}
	opts := []Opt{
		{Kernel: Naive}, {Kernel: Elkan}, {Kernel: Hamerly},
		{Kind: OptTrimmed, TrimFraction: 0.1}, {Kind: OptSpherical},
	}
	for _, o := range opts {
		requireCappedExact(t, ds64, init, o)
		requireCappedExact(t, ds32, init, o)
	}
}

func requireCappedExact[T geom.Float](t *testing.T, ds *geom.Set[T], init *geom.Matrix, o Opt) {
	t.Helper()
	const par = 2
	ds, err := Prepare(o, ds)
	if err != nil {
		t.Fatal(err)
	}
	res := Refine(o, ds, init, Config{MaxIter: 3, Parallelism: par}, 0)
	name := fmt.Sprintf("%+v, Bits %d", o, geom.Bits[T]())
	if res.Converged || res.Iters != 3 {
		t.Fatalf("%s: %d iterations, converged=%v; the case needs a run stopped by MaxIter", name, res.Iters, res.Converged)
	}
	snap := geom.Convert[T](res.Centers)
	want, wantCost := Assign(ds, snap, par)
	if math.Float64bits(res.Cost) != math.Float64bits(wantCost) {
		t.Fatalf("%s: Cost %v, but the returned centers cost %v", name, res.Cost, wantCost)
	}
	if !slices.Equal(res.Assign, want) {
		t.Fatalf("%s: the assignment is not the returned centers' (%d of %d points differ)", name, countDiff(res.Assign, want), len(want))
	}
	cost := make([]float64, ds.N()) // each point's w·d² to its returned center
	var cohesion float64
	geom.VisitAssign(ds.X, snap, geom.RowSqNorms(snap, nil), 0, ds.N(), false, func(i int, idx int32, d2 float64) {
		cost[i] = ds.W(i) * d2
		x := geom.WidenRow(make([]float64, ds.Dim()), ds.Point(i))
		cohesion += ds.W(i) * geom.Dot(x, res.Centers.Row(int(idx)))
	})
	switch o.Kind {
	case OptTrimmed:
		out := make([]bool, len(cost))
		for _, i := range res.Outliers {
			out[i] = true
		}
		var kept float64
		for i := range cost {
			if !out[i] {
				kept += cost[i]
			}
		}
		if math.Abs(res.TrimmedCost-kept) > 1e-9*kept {
			t.Fatalf("%s: TrimmedCost %v, but the returned centers cost %v over the kept points", name, res.TrimmedCost, kept)
		}
		cut := slices.Min(slicesAt(cost, res.Outliers))
		for i := range cost {
			if !out[i] && cost[i] > cut*(1+1e-6) {
				t.Fatalf("%s: kept point %d costs %v, more than the outlier floor %v", name, i, cost[i], cut)
			}
		}
	case OptSpherical:
		if math.Abs(res.Cohesion-cohesion) > 1e-6*math.Abs(cohesion) {
			t.Fatalf("%s: Cohesion %v, but the returned centers give %v", name, res.Cohesion, cohesion)
		}
	}
}

// slicesAt returns v's values at the indices idx.
func slicesAt(v []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for j, i := range idx {
		out[j] = v[i]
	}
	return out
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
