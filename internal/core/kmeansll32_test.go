package core

import (
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
)

// blobs32 generates well-separated clusters and returns float64 and float32
// views of the same float32-representable values.
func blobs32(t *testing.T, k, m, dim int, seed uint64) (*geom.Dataset, *geom.Set[float32]) {
	t.Helper()
	r := rng.New(seed)
	x := geom.NewMatrix(k*m, dim)
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = 20 * r.NormFloat64()
		}
		for i := 0; i < m; i++ {
			row := x.Row(c*m + i)
			for j := 0; j < dim; j++ {
				row[j] = center[j] + r.NormFloat64()
			}
		}
	}
	ds32 := geom.ConvertSet[float32](geom.NewDataset(x))
	return geom.WidenSet(ds32), ds32
}

// TestInit32SeedQuality checks the float32 run seeds as well as the float64
// one: same data, same config, SeedCost within a few percent (both are D²
// samplers over the same distribution; the tolerance absorbs the different
// coin-flip outcomes float32 distances can cause).
func TestInit32SeedQuality(t *testing.T) {
	for _, mode := range []SampleMode{Bernoulli, ExactL} {
		ds64, ds32 := blobs32(t, 8, 400, 16, 3)
		cfg := Config{K: 8, Seed: 7, Mode: mode}
		_, s64 := Init(ds64, cfg)
		c32, s32 := Init(ds32, cfg)

		if c32.Rows != 8 || c32.Cols != 16 {
			t.Fatalf("mode=%v: Init32 returned %dx%d centers", mode, c32.Rows, c32.Cols)
		}
		if s32.Candidates < 8 {
			t.Fatalf("mode=%v: only %d candidates", mode, s32.Candidates)
		}
		// PhiTrace must be monotone non-increasing: D² caches only shrink.
		for i := 1; i < len(s32.PhiTrace); i++ {
			if s32.PhiTrace[i] > s32.PhiTrace[i-1]*(1+1e-9) {
				t.Fatalf("mode=%v: PhiTrace increased at round %d", mode, i)
			}
		}
		// On well-separated blobs both seedings land near the optimum; allow
		// 25% slack for sampling variance between the two runs.
		if s32.SeedCost > 1.25*s64.SeedCost && s32.SeedCost-s64.SeedCost > 1e-6 {
			t.Fatalf("mode=%v: float32 seed cost %v far above float64's %v", mode, s32.SeedCost, s64.SeedCost)
		}
		// SeedCost is computed by the float32 engine; cross-check against the
		// float64 cost of the same centers.
		check := lloyd.Cost(ds64, c32, 0)
		rel := (s32.SeedCost - check) / check
		if rel < 0 {
			rel = -rel
		}
		if rel > 1e-5 {
			t.Fatalf("mode=%v: Stats.SeedCost %v vs float64 cost %v (rel %v)", mode, s32.SeedCost, check, rel)
		}
	}
}

// TestInit32Deterministic pins bit-exact repeatability for a fixed seed.
func TestInit32Deterministic(t *testing.T) {
	_, ds32 := blobs32(t, 5, 200, 8, 11)
	cfg := Config{K: 5, Seed: 42, Parallelism: 4}
	a, sa := Init(ds32, cfg)
	b, sb := Init(ds32, cfg)
	if sa.Candidates != sb.Candidates || sa.SeedCost != sb.SeedCost {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("centers diverged at flat index %d", i)
		}
	}
}

// TestInit32SmallDataset covers the k ≥ n early-out.
func TestInit32SmallDataset(t *testing.T) {
	_, ds32 := blobs32(t, 1, 3, 4, 13)
	c, stats := Init(ds32, Config{K: 10, Seed: 1})
	if c.Rows != 3 {
		t.Fatalf("k ≥ n should return all %d points, got %d", 3, c.Rows)
	}
	if stats.Passes != 0 {
		t.Fatalf("k ≥ n should cost no passes, got %d", stats.Passes)
	}
}
