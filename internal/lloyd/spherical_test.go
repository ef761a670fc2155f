package lloyd

import (
	"math"
	"slices"
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// directionBlobs returns unit vectors concentrated around k random
// directions.
func directionBlobs(t testing.TB, k, m, dim int, spread float64, seedVal uint64) (*geom.Dataset, *geom.Matrix) {
	t.Helper()
	r := rng.New(seedVal)
	dirs := geom.NewMatrix(k, dim)
	for c := 0; c < k; c++ {
		row := dirs.Row(c)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		geom.Scale(row, 1/math.Sqrt(geom.SqNorm(row)))
	}
	x := geom.NewMatrix(k*m, dim)
	for c := 0; c < k; c++ {
		for i := 0; i < m; i++ {
			row := x.Row(c*m + i)
			for j := range row {
				row[j] = dirs.Row(c)[j] + spread*r.NormFloat64()
			}
			geom.Scale(row, 1/math.Sqrt(geom.SqNorm(row)))
		}
	}
	return geom.NewDataset(x), dirs
}

// refineSpherical is Refine's spherical k-means.
func refineSpherical(ds *geom.Dataset, init *geom.Matrix, cfg Config) RefineResult {
	return Refine(Opt{Kind: OptSpherical}, ds, init, cfg, 0)
}

func TestNormalizeRows(t *testing.T) {
	x := geom.FromRows([][]float64{{3, 4}, {0, 0}, {1, 0}})
	ds := geom.NewDataset(x)
	zeros := NormalizeRows(ds)
	if zeros != 1 {
		t.Fatalf("zeros = %d, want 1", zeros)
	}
	if math.Abs(geom.SqNorm(ds.Point(0))-1) > 1e-12 {
		t.Fatalf("row 0 norm² = %v", geom.SqNorm(ds.Point(0)))
	}
	if math.Abs(ds.Point(0)[0]-0.6) > 1e-12 || math.Abs(ds.Point(0)[1]-0.8) > 1e-12 {
		t.Fatalf("row 0 = %v", ds.Point(0))
	}
}

func TestSphericalRecoversDirections(t *testing.T) {
	const k = 4
	ds, dirs := directionBlobs(t, k, 80, 8, 0.05, 1)
	res := refineSpherical(ds, dirs, Config{MaxIter: 50})
	if !res.Converged {
		t.Fatal("spherical k-means did not converge from true directions")
	}
	// Every recovered center should be nearly parallel to a true direction.
	for c := 0; c < k; c++ {
		best := math.Inf(-1)
		for cc := 0; cc < k; cc++ {
			if dot := geom.Dot(dirs.Row(c), res.Centers.Row(cc)); dot > best {
				best = dot
			}
		}
		if best < 0.98 {
			t.Fatalf("direction %d recovered with cosine %v", c, best)
		}
	}
	// Centers stay unit-norm.
	for c := 0; c < res.Centers.Rows; c++ {
		if math.Abs(geom.SqNorm(res.Centers.Row(c))-1) > 1e-9 {
			t.Fatalf("center %d not unit norm", c)
		}
	}
}

func TestSphericalCohesionImproves(t *testing.T) {
	ds, _ := directionBlobs(t, 5, 60, 6, 0.1, 2)
	r := rng.New(3)
	init := geom.NewMatrix(5, 6)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64()
	}
	res1 := refineSpherical(ds, init, Config{MaxIter: 1})
	resN := refineSpherical(ds, init, Config{MaxIter: 50})
	if resN.Cohesion < res1.Cohesion-1e-9 {
		t.Fatalf("cohesion decreased with more iterations: %v -> %v",
			res1.Cohesion, resN.Cohesion)
	}
	if resN.Cohesion <= 0 {
		t.Fatalf("cohesion %v on clustered directions", resN.Cohesion)
	}
}

func TestSphericalEquivalenceToEuclideanOnSphere(t *testing.T) {
	// For unit vectors, maximizing Σcos equals minimizing Σ‖x−c‖² up to the
	// center normalization; the assignments at a common center set must
	// agree.
	ds, dirs := directionBlobs(t, 3, 40, 5, 0.1, 4)
	res := refineSpherical(ds, dirs, Config{MaxIter: 1})
	for i := 0; i < ds.N(); i++ {
		idx, _ := geom.Nearest(ds.Point(i), dirs)
		if res.Assign[i] != int32(idx) {
			t.Fatalf("point %d: spherical assign %d, euclidean %d",
				i, res.Assign[i], idx)
		}
	}
}

// Spherical k-means fits a row-normalized copy of the data, and a zero row
// has no direction to normalize to.
func TestPrepareRejectsZeroRows(t *testing.T) {
	ds := geom.NewDataset(geom.FromRows([][]float64{{0, 0}, {3, 4}}))
	if _, err := Prepare(Opt{Kind: OptSpherical}, ds); err == nil {
		t.Fatal("Prepare accepted a zero row")
	}
	if !slices.Equal(ds.Point(1), []float64{3, 4}) {
		t.Fatal("Prepare normalized its input in place")
	}
}

// A cluster that starts with no point is reseeded, as in Lloyd's other
// variants: starting from the true directions with the fourth replaced by
// the opposite of their sum, the fit ends with all four clusters served.
func TestSphericalReseedsEmptyCluster(t *testing.T) {
	const k = 4
	ds, dirs := directionBlobs(t, k, 80, 8, 0.05, 1)
	init := dirs.Clone()
	far := init.Row(k - 1)
	clear(far)
	for c := 0; c < k; c++ {
		geom.AddScaled(far, -1, dirs.Row(c))
	}
	res := refineSpherical(ds, init, Config{MaxIter: 50})
	sizes := make([]int, k)
	for _, a := range res.Assign {
		sizes[a]++
	}
	if slices.Contains(sizes, 0) {
		t.Fatalf("cluster sizes %v: a cluster was left empty", sizes)
	}
	if !res.Converged {
		t.Fatalf("no convergence in %d iterations", res.Iters)
	}
}

func TestSphericalParallelismInvariant(t *testing.T) {
	ds, dirs := directionBlobs(t, 4, 50, 6, 0.2, 5)
	a := refineSpherical(ds, dirs, Config{MaxIter: 20, Parallelism: 1})
	b := refineSpherical(ds, dirs, Config{MaxIter: 20, Parallelism: 8})
	if a.Iters != b.Iters {
		t.Fatalf("iters differ: %d vs %d", a.Iters, b.Iters)
	}
	if math.Abs(a.Cohesion-b.Cohesion) > 1e-9*(1+math.Abs(a.Cohesion)) {
		t.Fatalf("cohesion differs: %v vs %v", a.Cohesion, b.Cohesion)
	}
}
