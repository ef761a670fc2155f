package lloyd

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// blobs generates k well-separated Gaussian clusters of m points each and
// returns the dataset plus the true centers.
func blobs(t testing.TB, k, m, dim int, sep float64, seed uint64) (*geom.Dataset, *geom.Matrix) {
	t.Helper()
	r := rng.New(seed)
	truth := geom.NewMatrix(k, dim)
	for c := 0; c < k; c++ {
		for j := 0; j < dim; j++ {
			truth.Row(c)[j] = sep * r.NormFloat64()
		}
	}
	x := geom.NewMatrix(k*m, dim)
	for c := 0; c < k; c++ {
		for i := 0; i < m; i++ {
			row := x.Row(c*m + i)
			for j := 0; j < dim; j++ {
				row[j] = truth.Row(c)[j] + r.NormFloat64()
			}
		}
	}
	return geom.NewDataset(x), truth
}

func TestRunConvergesOnBlobs(t *testing.T) {
	ds, truth := blobs(t, 4, 100, 5, 50, 1)
	res := Run(ds, truth, Config{})
	if !res.Converged {
		t.Fatal("Lloyd did not converge from true centers")
	}
	if res.Iters > 10 {
		t.Fatalf("Lloyd took %d iterations from true centers", res.Iters)
	}
	// Each recovered center should be near a true center.
	for c := 0; c < truth.Rows; c++ {
		_, d := geom.Nearest(truth.Row(c), res.Centers)
		if d > 1 {
			t.Fatalf("center %d is %v away from any recovered center", c, math.Sqrt(d))
		}
	}
}

func TestCostTraceMonotone(t *testing.T) {
	ds, _ := blobs(t, 5, 60, 4, 10, 2)
	r := rng.New(3)
	init := geom.NewMatrix(5, 4)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64() * 20
	}
	res := Run(ds, init, Config{MaxIter: 50})
	for i := 1; i < len(res.CostTrace); i++ {
		if res.CostTrace[i] > res.CostTrace[i-1]*(1+1e-9)+1e-9 {
			t.Fatalf("cost increased at iter %d: %v -> %v", i, res.CostTrace[i-1], res.CostTrace[i])
		}
	}
}

func TestCostMatchesSerial(t *testing.T) {
	ds, truth := blobs(t, 3, 50, 6, 20, 4)
	for _, p := range []int{1, 2, 7} {
		got := Cost(ds, truth, p)
		want := geom.Cost(ds, truth)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("parallel cost (p=%d) %v != serial %v", p, got, want)
		}
	}
}

func TestAssignMatchesNearest(t *testing.T) {
	ds, truth := blobs(t, 3, 40, 4, 30, 5)
	assign, cost := Assign(ds, truth, 3)
	var want float64
	for i := 0; i < ds.N(); i++ {
		idx, d := geom.Nearest(ds.Point(i), truth)
		if assign[i] != int32(idx) {
			t.Fatalf("assign[%d] = %d, want %d", i, assign[i], idx)
		}
		want += d
	}
	if math.Abs(cost-want) > 1e-9*(1+want) {
		t.Fatalf("Assign cost %v != %v", cost, want)
	}
}

func TestParallelismInvariance(t *testing.T) {
	ds, _ := blobs(t, 4, 80, 5, 15, 6)
	r := rng.New(7)
	init := geom.NewMatrix(4, 5)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64() * 10
	}
	res1 := Run(ds, init, Config{Parallelism: 1, MaxIter: 30})
	res8 := Run(ds, init, Config{Parallelism: 8, MaxIter: 30})
	if res1.Iters != res8.Iters {
		t.Fatalf("iteration counts differ: %d vs %d", res1.Iters, res8.Iters)
	}
	if math.Abs(res1.Cost-res8.Cost) > 1e-6*(1+res1.Cost) {
		t.Fatalf("costs differ across parallelism: %v vs %v", res1.Cost, res8.Cost)
	}
}

func TestInitialCentersNotModified(t *testing.T) {
	ds, truth := blobs(t, 3, 30, 4, 25, 8)
	before := truth.Clone()
	Run(ds, truth, Config{MaxIter: 10})
	for i := range truth.Data {
		if truth.Data[i] != before.Data[i] {
			t.Fatal("Run modified the initial centers")
		}
	}
}

func TestEmptyClusterRepairKeepsK(t *testing.T) {
	// Two far-apart blobs; three initial centers with two of them identical
	// and remote, guaranteeing an empty cluster in iteration 1.
	x := geom.NewMatrix(0, 2)
	x.Cols = 2
	r := rng.New(9)
	for i := 0; i < 50; i++ {
		x.AppendRow([]float64{r.NormFloat64(), r.NormFloat64()})
		x.AppendRow([]float64{100 + r.NormFloat64(), r.NormFloat64()})
	}
	ds := geom.NewDataset(x)
	init := geom.FromRows([][]float64{{0, 0}, {1e6, 1e6}, {1e6, 1e6}})
	res := Run(ds, init, Config{MaxIter: 100})
	if res.Centers.Rows != 3 {
		t.Fatalf("lost centers: %d", res.Centers.Rows)
	}
	counts := make([]int, 3)
	for _, a := range res.Assign {
		counts[a]++
	}
	for c, cnt := range counts {
		if cnt == 0 {
			t.Fatalf("cluster %d still empty after repair: %v", c, counts)
		}
	}
}

func TestWeightedEquivalentToReplication(t *testing.T) {
	// Weighted Lloyd on (x, w) must match unweighted Lloyd on the dataset
	// with x replicated w times.
	base := geom.FromRows([][]float64{{0, 0}, {1, 0}, {10, 0}, {11, 1}, {20, 5}})
	weights := []float64{3, 1, 2, 2, 1}
	wds := &geom.Dataset{X: base, Weight: weights}

	rep := geom.NewMatrix(0, 2)
	rep.Cols = 2
	for i, w := range weights {
		for j := 0; j < int(w); j++ {
			rep.AppendRow(base.Row(i))
		}
	}
	rds := geom.NewDataset(rep)

	init := geom.FromRows([][]float64{{0, 0}, {20, 5}})
	wres := Run(wds, init, Config{MaxIter: 50})
	rres := Run(rds, init, Config{MaxIter: 50})
	if math.Abs(wres.Cost-rres.Cost) > 1e-9*(1+rres.Cost) {
		t.Fatalf("weighted cost %v != replicated cost %v", wres.Cost, rres.Cost)
	}
	for i := range wres.Centers.Data {
		if math.Abs(wres.Centers.Data[i]-rres.Centers.Data[i]) > 1e-9 {
			t.Fatalf("weighted centers differ from replicated: %v vs %v",
				wres.Centers.Data, rres.Centers.Data)
		}
	}
}

func TestElkanHamerlyMatchNaive(t *testing.T) {
	ds, _ := blobs(t, 6, 100, 8, 12, 10)
	r := rng.New(11)
	init := geom.NewMatrix(6, 8)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64() * 15
	}
	naive := Run(ds, init, Config{MaxIter: 100})
	elkan := Refine(Opt{Kernel: Elkan}, ds, init, Config{MaxIter: 100}, 0)
	hamerly := Refine(Opt{Kernel: Hamerly}, ds, init, Config{MaxIter: 100}, 0)
	tol := 1e-6 * (1 + naive.Cost)
	if math.Abs(elkan.Cost-naive.Cost) > tol {
		t.Fatalf("Elkan cost %v != naive %v", elkan.Cost, naive.Cost)
	}
	if math.Abs(hamerly.Cost-naive.Cost) > tol {
		t.Fatalf("Hamerly cost %v != naive %v", hamerly.Cost, naive.Cost)
	}
}

func TestElkanHamerlySingleCluster(t *testing.T) {
	ds, _ := blobs(t, 1, 50, 3, 1, 12)
	init := geom.FromRows([][]float64{{5, 5, 5}})
	for _, m := range []Method{Elkan, Hamerly} {
		res := Refine(Opt{Kernel: m}, ds, init, Config{MaxIter: 20}, 0)
		naive := Run(ds, init, Config{MaxIter: 20})
		if math.Abs(res.Cost-naive.Cost) > 1e-9*(1+naive.Cost) {
			t.Fatalf("%v k=1 cost %v != naive %v", m, res.Cost, naive.Cost)
		}
	}
}

func TestAcceleratedWithEmptyClusters(t *testing.T) {
	x := geom.NewMatrix(0, 2)
	x.Cols = 2
	r := rng.New(13)
	for i := 0; i < 60; i++ {
		x.AppendRow([]float64{r.NormFloat64(), r.NormFloat64()})
	}
	ds := geom.NewDataset(x)
	init := geom.FromRows([][]float64{{0, 0}, {1e5, 1e5}, {-1e5, 1e5}})
	naive := Run(ds, init, Config{MaxIter: 100})
	for _, m := range []Method{Elkan, Hamerly} {
		res := Refine(Opt{Kernel: m}, ds, init, Config{MaxIter: 100}, 0)
		counts := make([]int, 3)
		for _, a := range res.Assign {
			counts[a]++
		}
		for c, cnt := range counts {
			if cnt == 0 {
				t.Fatalf("%v: cluster %d empty after repair", m, c)
			}
		}
		// Through the reseed, a bound method returns the naive run bit for bit.
		if !slices.Equal(res.Centers.Data, naive.Centers.Data) || !slices.Equal(res.Assign, naive.Assign) ||
			math.Float64bits(res.Cost) != math.Float64bits(naive.Cost) || res.Iters != naive.Iters || res.Converged != naive.Converged {
			t.Fatalf("%v: %d iterations, cost %v; naive: %d iterations, cost %v", m, res.Iters, res.Cost, naive.Iters, naive.Cost)
		}
	}
}

func TestMiniBatchImproves(t *testing.T) {
	ds, _ := blobs(t, 5, 200, 6, 20, 14)
	r := rng.New(15)
	init := geom.NewMatrix(5, 6)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64() * 30
	}
	before := Cost(ds, init, 0)
	res := MiniBatch(ds, init, MiniBatchConfig{Iters: 200, Seed: 16})
	if res.Cost >= before {
		t.Fatalf("mini-batch did not improve: %v -> %v", before, res.Cost)
	}
}

// Property: Lloyd's final cost never exceeds the initial cost, for random
// data and random initial centers.
func TestLloydNeverWorsensProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(100)
		d := 1 + r.Intn(6)
		k := 1 + r.Intn(5)
		x := geom.NewMatrix(n, d)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64() * 10
		}
		ds := geom.NewDataset(x)
		init := geom.NewMatrix(k, d)
		for i := range init.Data {
			init.Data[i] = r.NormFloat64() * 10
		}
		before := Cost(ds, init, 1)
		res := Run(ds, init, Config{MaxIter: 30, Parallelism: 1})
		return res.Cost <= before*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every method reaches a fixed point where re-assigning from the
// final centers does not change the cost.
func TestFixedPointProperty(t *testing.T) {
	ds, _ := blobs(t, 4, 50, 4, 18, 17)
	r := rng.New(18)
	init := geom.NewMatrix(4, 4)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64() * 10
	}
	for _, m := range []Method{Naive, Elkan, Hamerly} {
		res := Refine(Opt{Kernel: m}, ds, init, Config{}, 0)
		if !res.Converged {
			t.Fatalf("%v did not converge within default cap", m)
		}
		_, cost := Assign(ds, res.Centers, 1)
		if math.Abs(cost-res.Cost) > 1e-6*(1+res.Cost) {
			t.Fatalf("%v reported cost %v but reassignment gives %v", m, res.Cost, cost)
		}
	}
}

func BenchmarkLloydIterNaive(b *testing.B)   { benchLloydIter(b, Opt{}) }
func BenchmarkLloydIterElkan(b *testing.B)   { benchLloydIter(b, Opt{Kernel: Elkan}) }
func BenchmarkLloydIterHamerly(b *testing.B) { benchLloydIter(b, Opt{Kernel: Hamerly}) }
func BenchmarkLloydIterTrimmed(b *testing.B) {
	benchLloydIter(b, Opt{Kind: OptTrimmed, TrimFraction: 0.05})
}
func BenchmarkLloydIterSpherical(b *testing.B) { benchLloydIter(b, Opt{Kind: OptSpherical}) }

// benchLloydIter times a five-iteration Refine of variant o on 10⁴
// blobs, 16-d, k = 20, over the data o prepares.
func benchLloydIter(b *testing.B, o Opt) {
	ds, _ := blobs(b, 20, 500, 16, 10, 1)
	ds, err := Prepare(o, ds)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	init := geom.NewMatrix(20, 16)
	for i := range init.Data {
		init.Data[i] = r.NormFloat64() * 12
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Refine(o, ds, init, Config{MaxIter: 5}, 0)
	}
}
