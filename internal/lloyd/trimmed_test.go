package lloyd

import (
	"math"
	"slices"
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// blobsWithOutliers adds far-away noise points to separated blobs.
func blobsWithOutliers(t testing.TB, k, m, dim, outliers int, seedVal uint64) (*geom.Dataset, *geom.Matrix) {
	t.Helper()
	r := rng.New(seedVal)
	truth := geom.NewMatrix(k, dim)
	for i := range truth.Data {
		truth.Data[i] = 30 * r.NormFloat64()
	}
	x := &geom.Matrix{Cols: dim}
	for c := 0; c < k; c++ {
		for i := 0; i < m; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = truth.Row(c)[j] + r.NormFloat64()
			}
			x.AppendRow(p)
		}
	}
	for i := 0; i < outliers; i++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = 5000 * (1 + r.Float64()) * signOf(r)
		}
		x.AppendRow(p)
	}
	return geom.NewDataset(x), truth
}

// refineTrimmed is Refine's trimmed k-means, excluding the fraction f.
func refineTrimmed(ds *geom.Dataset, init *geom.Matrix, f float64, cfg Config) RefineResult {
	return Refine(Opt{Kind: OptTrimmed, TrimFraction: f}, ds, init, cfg, 0)
}

func signOf(r *rng.Rng) float64 {
	if r.Bernoulli(0.5) {
		return 1
	}
	return -1
}

func TestTrimmedIgnoresOutliers(t *testing.T) {
	const k, m, out = 4, 100, 12
	ds, truth := blobsWithOutliers(t, k, m, 3, out, 1)
	// Start from the true centers; plain Lloyd gets dragged by outliers,
	// trimmed should keep the centers near the truth.
	plain := Run(ds, truth, Config{MaxIter: 100})
	trimmed := refineTrimmed(ds, truth, float64(out+2)/float64(ds.N()), Config{MaxIter: 100})

	var plainDrift, trimDrift float64
	for c := 0; c < k; c++ {
		_, dp := geom.Nearest(truth.Row(c), plain.Centers)
		_, dt := geom.Nearest(truth.Row(c), trimmed.Centers)
		plainDrift += math.Sqrt(dp)
		trimDrift += math.Sqrt(dt)
	}
	if trimDrift > 2 {
		t.Fatalf("trimmed centers drifted %v from truth", trimDrift)
	}
	if trimDrift >= plainDrift {
		t.Fatalf("trimmed drift %v not better than plain %v", trimDrift, plainDrift)
	}
}

func TestTrimmedIdentifiesOutliers(t *testing.T) {
	const k, m, out = 3, 80, 10
	ds, truth := blobsWithOutliers(t, k, m, 4, out, 2)
	res := refineTrimmed(ds, truth, float64(out)/float64(ds.N()), Config{MaxIter: 50})
	if len(res.Outliers) != out {
		t.Fatalf("flagged %d outliers, want %d", len(res.Outliers), out)
	}
	// Injected outliers occupy the last `out` indices.
	for _, i := range res.Outliers {
		if i < k*m {
			t.Fatalf("flagged inlier %d as outlier", i)
		}
	}
	if res.TrimmedCost >= res.Cost {
		t.Fatalf("trimmed cost %v not below full cost %v", res.TrimmedCost, res.Cost)
	}
}

// With nothing trimmed, trimmed k-means is Run's naive Lloyd bit for bit.
func TestTrimmedZeroFractionMatchesLloyd(t *testing.T) {
	ds, _ := blobs(t, 4, 60, 4, 20, 3)
	r := rng.New(4)
	init := geom.NewMatrix(4, 4)
	for i := range init.Data {
		init.Data[i] = 20 * r.NormFloat64()
	}
	for par := 1; par <= 3; par++ {
		cfg := Config{MaxIter: 100, Parallelism: par}
		plain := Run(ds, init, cfg)
		trimmed := refineTrimmed(ds, init, 0, cfg)
		if !slices.Equal(trimmed.Centers.Data, plain.Centers.Data) || !slices.Equal(trimmed.Assign, plain.Assign) ||
			math.Float64bits(trimmed.Cost) != math.Float64bits(plain.Cost) || !slices.Equal(trimmed.CostTrace, plain.CostTrace) ||
			trimmed.Iters != plain.Iters || trimmed.Converged != plain.Converged {
			t.Fatalf("Parallelism %d: trim=0 ran %d iterations to cost %v, plain Lloyd %d to %v",
				par, trimmed.Iters, trimmed.Cost, plain.Iters, plain.Cost)
		}
		if len(trimmed.Outliers) != 0 {
			t.Fatalf("Parallelism %d: trim=0 flagged %d outliers", par, len(trimmed.Outliers))
		}
	}
}

func TestTrimmedConverges(t *testing.T) {
	ds, truth := blobsWithOutliers(t, 3, 50, 3, 5, 5)
	res := refineTrimmed(ds, truth, 0.05, Config{MaxIter: 200})
	if !res.Converged {
		t.Fatal("trimmed k-means did not converge")
	}
	// Trace over kept points must be non-increasing after the first step.
	for i := 2; i < len(res.CostTrace); i++ {
		if res.CostTrace[i] > res.CostTrace[i-1]*(1+1e-9) {
			t.Fatalf("trimmed cost rose at iter %d: %v -> %v",
				i, res.CostTrace[i-1], res.CostTrace[i])
		}
	}
}

func TestTrimmedPanicsOnBadFraction(t *testing.T) {
	ds, truth := blobsWithOutliers(t, 2, 10, 2, 0, 6)
	for _, f := range []float64{-0.1, 1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TrimFraction=%v did not panic", f)
				}
			}()
			refineTrimmed(ds, truth, f, Config{})
		}()
	}
}
