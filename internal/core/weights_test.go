package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"kmeansll/internal/geom"
)

// recordWeights is the in-process backend with Step 7 observed: it keeps
// the candidate set the folds saw and a copy of the weights Weights
// returned to Drive.
type recordWeights[T geom.Float] struct {
	*local[T]
	cands   *geom.Matrix
	weights []float64
}

func (r *recordWeights[T]) Fold(cands *geom.Matrix, lo, hi int) (float64, error) {
	r.cands = cands
	return r.local.Fold(cands, lo, hi)
}

func (r *recordWeights[T]) Weights(candidates int) ([]float64, error) {
	w, err := r.local.Weights(candidates)
	r.weights = slices.Clone(w)
	return w, err
}

// Drive's Step 7 reads the nearest rows the folds recorded and computes no
// distance. Its weights must equal a full nearest scan of every point
// against the final candidates (WeightSpan per chunk, reduced in chunk
// order) bit for bit, at every Parallelism, in both sampling modes, in both
// precisions, unweighted and weighted. Step 2 folds one candidate through
// the pair scan and every round folds tens through the blocked engine, so
// both fold paths feed the histogram.
func TestDriveWeightsMatchFullScan(t *testing.T) {
	ds := blobs(t, 20, 100, 8, 6, 91)
	weights := make([]float64, ds.N())
	for i := range weights {
		weights[i] = 0.5 + float64(i%9)/4
	}
	for _, weighted := range []bool{false, true} {
		ds := &geom.Dataset{X: ds.X}
		if weighted {
			ds.Weight = weights
		}
		ds32 := geom.ConvertSet[float32](ds)
		for _, mode := range []SampleMode{Bernoulli, ExactL} {
			for _, par := range []int{1, 2, 3} {
				cfg := Config{K: 20, Mode: mode, Parallelism: par, Seed: 17}
				name := fmt.Sprintf("weighted=%v/%v/P=%d", weighted, mode, par)
				checkDriveWeights(t, name+"/f64", ds, cfg)
				checkDriveWeights(t, name+"/f32", ds32, cfg)
			}
		}
	}
}

func checkDriveWeights[T geom.Float](t *testing.T, name string, ds *geom.Set[T], cfg Config) {
	t.Helper()
	r := &recordWeights[T]{local: newLocal(ds, cfg)}
	_, stats, err := Drive(r, cfg, ds.N(), ds.Weight, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.weights) != stats.Candidates || stats.Candidates < 2*cfg.K {
		t.Fatalf("%s: %d weights for %d candidates", name, len(r.weights), stats.Candidates)
	}
	cands := geom.Convert[T](r.cands)
	want := make([]float64, cands.Rows)
	for _, w := range chunks(r.local, func(lo, hi int) []float64 { return WeightSpan(ds, lo, hi, cands) }) {
		geom.AddScaled(want, 1, w)
	}
	for c := range want {
		if math.Float64bits(r.weights[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: candidate %d weighs %v, a full scan gives %v", name, c, r.weights[c], want[c])
		}
	}
}
