package mrkm

import (
	"math"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// Fewer points than mappers: spans clamp to one point each and the result
// still matches a single-mapper run exactly.
func TestInitFewerPointsThanMappers(t *testing.T) {
	ds := blobs(t, 3, 2, 4, 40, 31) // 6 points
	cfg := core.Config{K: 3, L: 6, Rounds: 2, Seed: 5}
	c1, s1 := Init(ds, cfg, Config{Mappers: 1})
	c64, s64 := Init(ds, cfg, Config{Mappers: 64})
	if s1.Candidates != s64.Candidates {
		t.Fatalf("candidates differ: %d vs %d", s1.Candidates, s64.Candidates)
	}
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c64.Data[i]) > 1e-9 {
			t.Fatal("Init result depends on mapper count when mappers > n")
		}
	}
}

// Lloyd with a degenerate single-point-per-mapper split (n == mappers).
func TestLloydOnePointPerMapper(t *testing.T) {
	ds := blobs(t, 2, 3, 3, 50, 37) // 6 points
	init := seed.Random(ds, 2, rng.New(38))
	res, _ := Lloyd(ds, init, 10, Config{Mappers: 6})
	if len(res.Assign) != 6 {
		t.Fatalf("assignments for %d points, want 6", len(res.Assign))
	}
	if res.Cost < 0 {
		t.Fatalf("negative cost %v", res.Cost)
	}
}
