package mrkm

import (
	"math"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

// blobs32 narrows a blobs dataset to float32 and re-widens, so the float64
// and float32 realizations see exactly the same values.
func blobs32(t testing.TB, k, m, dim int, sep float64, seedVal uint64) (*geom.Dataset, *geom.Set[float32]) {
	t.Helper()
	ds32 := geom.ConvertSet[float32](blobs(t, k, m, dim, sep, seedVal))
	return geom.WidenSet(ds32), ds32
}

// TestInit32MatchesInit compares the float32 MR realization against the
// float64 one on float32-representable data: same seed schedule, tolerance
// agreement on ψ and the seed cost per the float32 contract.
func TestInit32MatchesInit(t *testing.T) {
	ds64, ds32 := blobs32(t, 5, 120, 6, 25, 11)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 7}
	_, s64 := Init(ds64, cfg, Config{Mappers: 4})
	c32, s32 := Init(ds32, cfg, Config{Mappers: 4})
	if c32.Rows != 5 {
		t.Fatalf("Init32 returned %d centers", c32.Rows)
	}
	if math.Abs(s64.Psi-s32.Psi) > 1e-5*(1+s64.Psi) {
		t.Fatalf("ψ differs: f64 %v vs f32 %v", s64.Psi, s32.Psi)
	}
	if math.Abs(s64.SeedCost-s32.SeedCost) > 1e-4*(1+s64.SeedCost) {
		t.Fatalf("seed cost differs: f64 %v vs f32 %v", s64.SeedCost, s32.SeedCost)
	}
	if s32.MRRounds != s64.MRRounds {
		t.Fatalf("MR round counts differ: f64 %d vs f32 %d", s64.MRRounds, s32.MRRounds)
	}
}

// TestLloyd32MatchesLloyd runs the float32 MR Lloyd against the float64 one
// from the same float32-representable start and asserts the tolerance
// contract on cost and assignments.
func TestLloyd32MatchesLloyd(t *testing.T) {
	ds64, ds32 := blobs32(t, 6, 150, 8, 10, 13)
	init, _ := Init(ds64, core.Config{K: 6, Seed: 3}, Config{Mappers: 4})
	// Narrow the start so both precisions refine from identical values.
	init = geom.Widen(geom.Convert[float32](init))
	r64, _ := Lloyd(ds64, init, 15, Config{Mappers: 4})
	r32, _ := Lloyd(ds32, init, 15, Config{Mappers: 4})
	if rel := math.Abs(r32.Cost-r64.Cost) / r64.Cost; rel > 1e-5 {
		t.Fatalf("cost differs: f64 %v vs f32 %v (rel %v)", r64.Cost, r32.Cost, rel)
	}
	same := 0
	for i := range r64.Assign {
		if r64.Assign[i] == r32.Assign[i] {
			same++
		}
	}
	if frac := float64(same) / float64(len(r64.Assign)); frac < 0.999 {
		t.Fatalf("only %.4f assignment agreement", frac)
	}
}

// TestLloyd32AssignMatchesAssign32 pins that the final span-job assignment of
// Lloyd32 is the same per-point answer as the in-process float32 assignment
// pass (per-point values are span- and chunk-independent by the kernel
// contract; only reduction order differs, which assignments don't see).
func TestLloyd32AssignMatchesAssign32(t *testing.T) {
	ds64, ds32 := blobs32(t, 4, 100, 5, 20, 17)
	init, _ := Init(ds64, core.Config{K: 4, Seed: 9}, Config{Mappers: 3})
	init = geom.Widen(geom.Convert[float32](init))
	res, _ := Lloyd(ds32, init, 10, Config{Mappers: 3})
	snap := geom.Convert[float32](res.Centers)
	want, _ := lloyd.Assign(ds32, snap, 2)
	for i := range want {
		if want[i] != res.Assign[i] {
			t.Fatalf("assignment %d differs: Lloyd32 %d vs Assign32 %d", i, res.Assign[i], want[i])
		}
	}
}

// TestUpdateSpan32SpanInvariance checks the fold body gives
// span-structure-independent per-point results: two mapper counts must yield
// bit-identical candidate D² caches, and the same nearest rows, after the
// first update pass.
func TestUpdateSpan32SpanInvariance(t *testing.T) {
	_, ds32 := blobs32(t, 4, 90, 7, 15, 19)
	n := ds32.N()
	centers := &geom.Mat[float32]{Cols: ds32.Dim()}
	for _, i := range []int{0, 57, 200} {
		centers.AppendRow(ds32.Point(i))
	}
	run := func(mappers int) ([]float64, []int32) {
		d2, near := make([]float64, n), make([]int32, n)
		for i := range d2 {
			d2[i] = math.Inf(1)
		}
		geom.ParallelFor(n, mappers, func(_, lo, hi int) {
			geom.FoldNearest(ds32, d2, near, lo, hi, centers, 0)
		})
		return d2, near
	}
	a, aNear := run(1)
	b, bNear := run(7)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("d2[%d] differs across span structures: %v vs %v", i, a[i], b[i])
		}
		if aNear[i] != bNear[i] {
			t.Fatalf("near[%d] differs across span structures: %d vs %d", i, aNear[i], bNear[i])
		}
	}
}
