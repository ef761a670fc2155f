package seed

import (
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// testData32 builds clustered float32-representable data in both precisions.
func testData32(t *testing.T, n, dim int, seed uint64) (*geom.Dataset, *geom.Set[float32]) {
	t.Helper()
	r := rng.New(seed)
	x := geom.NewMatrix(n, dim)
	for i := range x.Data {
		x.Data[i] = 10 * r.NormFloat64()
	}
	ds32 := geom.ConvertSet[float32](geom.NewDataset(x))
	return geom.WidenSet(ds32), ds32
}

// TestKMeansPP32Quality checks the float32 k-means++ seeds as well as the
// float64 variant on the same data: both are draws from (nearly) the same D²
// distribution, so their costs must be within sampling slack of each other.
func TestKMeansPP32Quality(t *testing.T) {
	ds64, ds32 := testData32(t, 1500, 12, 5)
	k := 10
	c64 := KMeansPP(ds64, k, rng.New(3), 0)
	c32 := KMeansPP(ds32, k, rng.New(3), 0)
	if c32.Rows != k || c32.Cols != 12 {
		t.Fatalf("KMeansPP32 returned %dx%d", c32.Rows, c32.Cols)
	}
	cost := func(c *geom.Matrix) float64 {
		var s float64
		for i := 0; i < ds64.N(); i++ {
			_, d := geom.Nearest(ds64.Point(i), c)
			s += d
		}
		return s
	}
	f64Cost, f32Cost := cost(c64), cost(c32)
	if f32Cost > 1.5*f64Cost {
		t.Fatalf("float32 seeding cost %v far above float64's %v", f32Cost, f64Cost)
	}
	// Every returned center must be an exact widening of an input point.
	for c := 0; c < k; c++ {
		found := false
		for i := 0; i < ds64.N() && !found; i++ {
			found = geom.SqDist(c32.Row(c), ds64.Point(i)) == 0
		}
		if !found {
			t.Fatalf("center %d is not a dataset point", c)
		}
	}
}

// TestKMeansPP32Deterministic pins bit-exact repeatability.
func TestKMeansPP32Deterministic(t *testing.T) {
	_, ds32 := testData32(t, 600, 7, 9)
	a := KMeansPP(ds32, 6, rng.New(17), 4)
	b := KMeansPP(ds32, 6, rng.New(17), 4)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("centers diverged at flat index %d", i)
		}
	}
}

// TestKMeansPP32SmallDataset covers k ≥ n: all points returned, widened.
func TestKMeansPP32SmallDataset(t *testing.T) {
	ds64, ds32 := testData32(t, 4, 3, 2)
	c := KMeansPP(ds32, 9, rng.New(1), 0)
	if c.Rows != 4 {
		t.Fatalf("k ≥ n should return all 4 points, got %d", c.Rows)
	}
	for i := 0; i < 4; i++ {
		if geom.SqDist(c.Row(i), ds64.Point(i)) != 0 {
			t.Fatalf("point %d was not returned exactly", i)
		}
	}
}

// TestKMeansPP32Weighted checks the weighted path draws the first center
// weight-proportionally and runs to completion.
func TestKMeansPP32Weighted(t *testing.T) {
	_, ds32 := testData32(t, 500, 5, 21)
	r := rng.New(33)
	ds32.Weight = make([]float64, ds32.N())
	for i := range ds32.Weight {
		ds32.Weight[i] = 0.1 + r.Float64()
	}
	c := KMeansPP(ds32, 8, rng.New(2), 0)
	if c.Rows != 8 {
		t.Fatalf("got %d centers, want 8", c.Rows)
	}
}
