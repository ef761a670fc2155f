package lloyd

import (
	"math"
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// f32Pair rounds a dataset through float32 and returns both views of the
// SAME values — the float64 dataset holds exact widenings of the float32
// one, so any difference between Run and Run32 on the pair is arithmetic,
// not input rounding.
func f32Pair(ds *geom.Dataset) (*geom.Dataset, *geom.Set[float32]) {
	ds32 := geom.ConvertSet[float32](ds)
	return geom.WidenSet(ds32), ds32
}

func TestCost32MatchesCost(t *testing.T) {
	raw, truth := blobs(t, 8, 200, 16, 10, 21)
	ds64, ds32 := f32Pair(raw)
	centers := geom.Widen(geom.Convert[float32](truth)) // f32-representable centers
	want := Cost(ds64, centers, 0)
	got := Cost(ds32, geom.Convert[float32](centers), 0)
	if rel := math.Abs(got-want) / want; rel > 1e-5 {
		t.Fatalf("Cost32 = %v, Cost = %v (rel %v)", got, want, rel)
	}
}

func TestRun32MatchesRunOnF32Data(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		raw, _ := blobs(t, 6, 300, 12, 8, 23)
		if weighted {
			r := rng.New(99)
			raw.Weight = make([]float64, raw.N())
			for i := range raw.Weight {
				raw.Weight[i] = 0.5 + r.Float64()
			}
		}
		ds64, ds32 := f32Pair(raw)
		r := rng.New(5)
		init := geom.NewMatrix(6, 12)
		for i := range init.Data {
			init.Data[i] = float64(float32(8 * r.NormFloat64()))
		}
		cfg := Config{MaxIter: 40}
		want := Run(ds64, init, cfg)
		got := Run(ds32, init, cfg)

		if rel := math.Abs(got.Cost-want.Cost) / want.Cost; rel > 1e-5 {
			t.Fatalf("weighted=%v: Run32 cost %v vs Run cost %v (rel %v)", weighted, got.Cost, want.Cost, rel)
		}
		agree := 0
		for i := range want.Assign {
			if want.Assign[i] == got.Assign[i] {
				agree++
			}
		}
		if frac := float64(agree) / float64(len(want.Assign)); frac < 0.999 {
			t.Fatalf("weighted=%v: assignment agreement %.4f < 0.999", weighted, frac)
		}
		// The float32 trace must be monotone non-increasing like the float64
		// one — accumulation is float64, so this holds to working precision.
		for i := 1; i < len(got.CostTrace); i++ {
			if got.CostTrace[i] > got.CostTrace[i-1]*(1+1e-9) {
				t.Fatalf("weighted=%v: cost trace increased at iter %d: %v -> %v",
					weighted, i, got.CostTrace[i-1], got.CostTrace[i])
			}
		}
	}
}

// TestRun32RepairsEmptyClusters seeds one center far outside the data so its
// cluster starts empty, and checks the repair path reseeds it.
func TestRun32RepairsEmptyClusters(t *testing.T) {
	raw, truth := blobs(t, 3, 100, 4, 20, 31)
	_, ds32 := f32Pair(raw)
	init := truth.Clone()
	for j := range init.Row(0) {
		init.Row(0)[j] = 1e6 // no point is nearest to this center
	}
	res := Run(ds32, init, Config{MaxIter: 30})
	seen := make(map[int32]bool)
	for _, a := range res.Assign {
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("expected all 3 clusters populated after repair, got %d", len(seen))
	}
	if res.Centers.Row(0)[0] > 1e5 {
		t.Fatal("empty center was never moved")
	}
}

// TestRun32Deterministic pins that two identical Run32 calls agree bit for
// bit — the float32 path is deterministic for a fixed kernel choice.
func TestRun32Deterministic(t *testing.T) {
	raw, truth := blobs(t, 5, 150, 9, 10, 41)
	_, ds32 := f32Pair(raw)
	a := Run(ds32, truth, Config{MaxIter: 15, Parallelism: 4})
	b := Run(ds32, truth, Config{MaxIter: 15, Parallelism: 4})
	if a.Cost != b.Cost || a.Iters != b.Iters {
		t.Fatalf("two identical runs diverged: cost %v vs %v, iters %d vs %d", a.Cost, b.Cost, a.Iters, b.Iters)
	}
	for i := range a.Centers.Data {
		if a.Centers.Data[i] != b.Centers.Data[i] {
			t.Fatalf("centers diverged at flat index %d", i)
		}
	}
}
