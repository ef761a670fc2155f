package lloyd

import (
	"math"
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// agreeFrac returns the fraction of identical assignments.
func agreeFrac(a, b []int32) float64 {
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// TestAccel32MatchesF64 runs the float32 Elkan and Hamerly loops against
// their float64 counterparts on float32-representable data and asserts the
// tolerance contract: ≤1e-5 relative cost difference and ≥99.9% assignment
// agreement.
func TestAccel32MatchesF64(t *testing.T) {
	for _, method := range []Method{Elkan, Hamerly} {
		for _, weighted := range []bool{false, true} {
			raw, _ := blobs(t, 6, 300, 12, 8, 29)
			if weighted {
				r := rng.New(77)
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
			o, cfg := Opt{Kernel: method}, Config{MaxIter: 40}
			want := Refine(o, ds64, init, cfg, 0)
			got := Refine(o, ds32, init, cfg, 0)

			if rel := math.Abs(got.Cost-want.Cost) / want.Cost; rel > 1e-5 {
				t.Fatalf("%v weighted=%v: Run32 cost %v vs Run cost %v (rel %v)",
					method, weighted, got.Cost, want.Cost, rel)
			}
			if frac := agreeFrac(want.Assign, got.Assign); frac < 0.999 {
				t.Fatalf("%v weighted=%v: only %.4f assignment agreement", method, weighted, frac)
			}
			if got.Iters == 0 || got.Centers.Rows != 6 {
				t.Fatalf("%v: malformed result %+v", method, got)
			}
		}
	}
}

// TestAccel32MatchesNaive32 checks that the bounded float32 loops land on
// the same clustering as the fused naive float32 loop — they are exact
// algorithms over the same arithmetic family, so costs must agree tightly.
func TestAccel32MatchesNaive32(t *testing.T) {
	raw, _ := blobs(t, 8, 250, 16, 10, 31)
	_, ds32 := f32Pair(raw)
	r := rng.New(9)
	init := geom.NewMatrix(8, 16)
	for i := range init.Data {
		init.Data[i] = float64(float32(10 * r.NormFloat64()))
	}
	base := Run(ds32, init, Config{MaxIter: 60})
	for _, method := range []Method{Elkan, Hamerly} {
		got := Refine(Opt{Kernel: method}, ds32, init, Config{MaxIter: 60}, 0)
		if rel := math.Abs(got.Cost-base.Cost) / base.Cost; rel > 1e-5 {
			t.Fatalf("%v: cost %v vs naive32 %v (rel %v)", method, got.Cost, base.Cost, rel)
		}
		if frac := agreeFrac(base.Assign, got.Assign); frac < 0.999 {
			t.Fatalf("%v: only %.4f agreement with naive32", method, frac)
		}
	}
}

// TestAccel32Deterministic repeats a run with a fixed configuration and
// requires bit-identical output.
func TestAccel32Deterministic(t *testing.T) {
	raw, _ := blobs(t, 5, 200, 8, 6, 37)
	_, ds32 := f32Pair(raw)
	r := rng.New(3)
	init := geom.NewMatrix(5, 8)
	for i := range init.Data {
		init.Data[i] = float64(float32(6 * r.NormFloat64()))
	}
	for _, method := range []Method{Elkan, Hamerly} {
		o, cfg := Opt{Kernel: method}, Config{MaxIter: 25, Parallelism: 3}
		a := Refine(o, ds32, init, cfg, 0)
		b := Refine(o, ds32, init, cfg, 0)
		if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
			t.Fatalf("%v: costs differ across identical runs: %v vs %v", method, a.Cost, b.Cost)
		}
		for i := range a.Assign {
			if a.Assign[i] != b.Assign[i] {
				t.Fatalf("%v: assignment %d differs across identical runs", method, i)
			}
		}
	}
}

// TestAccel32RepairsEmptyClusters seeds two coincident far-away centers so
// one cluster starts empty, and requires the bounded loops to repair it.
func TestAccel32RepairsEmptyClusters(t *testing.T) {
	raw, _ := blobs(t, 4, 150, 6, 8, 41)
	_, ds32 := f32Pair(raw)
	init := geom.NewMatrix(4, 6)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			init.Row(i)[j] = 1e4 // all centers coincide far from the data
		}
	}
	for _, method := range []Method{Elkan, Hamerly} {
		res := Refine(Opt{Kernel: method}, ds32, init, Config{MaxIter: 30}, 0)
		seen := map[int32]bool{}
		for _, a := range res.Assign {
			seen[a] = true
		}
		if len(seen) != 4 {
			t.Fatalf("%v: %d of 4 clusters populated after repair", method, len(seen))
		}
	}
}

// TestMiniBatch32MatchesMiniBatch runs the float32 mini-batch variant
// against the float64 one with the same seed (identical batch draws) and
// asserts the tolerance contract on the final cost and assignment.
func TestMiniBatch32MatchesMiniBatch(t *testing.T) {
	raw, truth := blobs(t, 6, 400, 10, 9, 43)
	ds64, ds32 := f32Pair(raw)
	init := geom.Widen(geom.Convert[float32](truth))
	cfg := MiniBatchConfig{BatchSize: 64, Iters: 50, Seed: 11}
	want := MiniBatch(ds64, init, cfg)
	got := MiniBatch(ds32, init, cfg)
	if rel := math.Abs(got.Cost-want.Cost) / want.Cost; rel > 1e-4 {
		t.Fatalf("MiniBatch32 cost %v vs MiniBatch cost %v (rel %v)", got.Cost, want.Cost, rel)
	}
	if frac := agreeFrac(want.Assign, got.Assign); frac < 0.99 {
		t.Fatalf("only %.4f assignment agreement", frac)
	}
	if got.Converged {
		t.Fatal("MiniBatch32 must not report convergence")
	}
}

// TestRefine32Variants exercises the optimizer entry point over float32
// storage for every kind: all of them run in float32 now, Spherical over
// its Prepare-normalized copy.
func TestRefine32Variants(t *testing.T) {
	raw, truth := blobs(t, 4, 120, 8, 7, 47)
	_, ds32 := f32Pair(raw)
	init := geom.Widen(geom.Convert[float32](truth))
	for _, o := range []Opt{
		{Kind: OptLloyd, Kernel: Naive},
		{Kind: OptLloyd, Kernel: Elkan},
		{Kind: OptLloyd, Kernel: Hamerly},
		{Kind: OptMiniBatch, BatchSize: 32, Batches: 20},
		{Kind: OptTrimmed, TrimFraction: 0.05},
		{Kind: OptSpherical},
	} {
		ds, err := Prepare(o, ds32)
		if err != nil {
			t.Fatal(err)
		}
		res := Refine(o, ds, init, Config{MaxIter: 20}, 7)
		if res.Cost <= 0 || len(res.Assign) != ds32.N() {
			t.Fatalf("Refine(%+v): malformed result cost=%v", o, res.Cost)
		}
	}
}
