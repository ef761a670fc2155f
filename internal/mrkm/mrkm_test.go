package mrkm

import (
	"math"
	"slices"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

func blobs(t testing.TB, k, m, dim int, sep float64, seedVal uint64) *geom.Dataset {
	t.Helper()
	r := rng.New(seedVal)
	truth := geom.NewMatrix(k, dim)
	for i := range truth.Data {
		truth.Data[i] = sep * r.NormFloat64()
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
	return geom.NewDataset(x)
}

func TestInitMatchesInProcessCandidates(t *testing.T) {
	// Same seed + Bernoulli sampling with counter-based randomness, and as
	// many mappers as core.Init has chunks ⇒ the MR realization reproduces
	// core.Init bit for bit: the same partials summed in the same order.
	ds := blobs(t, 5, 100, 6, 25, 1)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 7, Parallelism: 4}
	coreCenters, coreStats := core.Init(ds, cfg)
	mrCenters, mrStats := Init(ds, cfg, Config{Mappers: 4})
	if coreStats.Candidates != mrStats.Candidates {
		t.Fatalf("candidate counts differ: core %d vs mr %d",
			coreStats.Candidates, mrStats.Candidates)
	}
	if !slices.Equal(coreStats.RoundCandidates, mrStats.RoundCandidates) {
		t.Fatalf("per-round candidates differ: core %v vs mr %v",
			coreStats.RoundCandidates, mrStats.RoundCandidates)
	}
	if math.Float64bits(coreStats.Psi) != math.Float64bits(mrStats.Psi) {
		t.Fatalf("ψ differs: %v vs %v", coreStats.Psi, mrStats.Psi)
	}
	if len(coreStats.PhiTrace) != len(mrStats.PhiTrace) {
		t.Fatalf("φ trace lengths differ: %d vs %d", len(coreStats.PhiTrace), len(mrStats.PhiTrace))
	}
	for i := range coreStats.PhiTrace {
		if math.Float64bits(coreStats.PhiTrace[i]) != math.Float64bits(mrStats.PhiTrace[i]) {
			t.Fatalf("φ trace differs at %d: %v vs %v", i,
				coreStats.PhiTrace[i], mrStats.PhiTrace[i])
		}
	}
	if coreCenters.Rows != mrCenters.Rows {
		t.Fatalf("center counts differ: %d vs %d", coreCenters.Rows, mrCenters.Rows)
	}
	for i := range coreCenters.Data {
		if math.Float64bits(coreCenters.Data[i]) != math.Float64bits(mrCenters.Data[i]) {
			t.Fatalf("centers differ at flat index %d: %v vs %v", i, coreCenters.Data[i], mrCenters.Data[i])
		}
	}
	if math.Float64bits(coreStats.SeedCost) != math.Float64bits(mrStats.SeedCost) {
		t.Fatalf("seed cost differs: %v vs %v", coreStats.SeedCost, mrStats.SeedCost)
	}
}

// ExactL draws from the whole D² cache at once, which no mapper holds.
func TestInitRefusesExactL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Init accepted ExactL")
		}
	}()
	Init(blobs(t, 3, 40, 4, 20, 2), core.Config{K: 3, Mode: core.ExactL, Seed: 1}, Config{Mappers: 2})
}

func TestInitQuality(t *testing.T) {
	ds := blobs(t, 8, 150, 8, 50, 2)
	centers, stats := Init(ds, core.Config{K: 8, Seed: 3}, Config{Mappers: 8})
	if centers.Rows != 8 {
		t.Fatalf("got %d centers", centers.Rows)
	}
	rc := seed.Random(ds, 8, rng.New(99))
	randCost := lloyd.Cost(ds, rc, 0)
	if stats.SeedCost*2 > randCost {
		t.Fatalf("MR k-means|| seed cost %v not ≪ random %v", stats.SeedCost, randCost)
	}
}

func TestMRRoundAccounting(t *testing.T) {
	ds := blobs(t, 4, 100, 5, 20, 4)
	_, stats := Init(ds, core.Config{K: 4, L: 8, Rounds: 3, Seed: 5}, Config{Mappers: 4})
	// 1 (ψ) + 3×2 (sample + update per round) + 1 (weights) + 1 (cost) = 9.
	if stats.MRRounds != 9 {
		t.Fatalf("MR rounds = %d, want 9", stats.MRRounds)
	}
	if stats.MRRounds != stats.Passes+stats.Rounds {
		t.Fatalf("MR rounds = %d, want passes %d + sampling rounds %d",
			stats.MRRounds, stats.Passes, stats.Rounds)
	}
}

func TestInitInvariantToMapperCount(t *testing.T) {
	ds := blobs(t, 5, 120, 6, 30, 6)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 8}
	c1, s1 := Init(ds, cfg, Config{Mappers: 1})
	c2, s2 := Init(ds, cfg, Config{Mappers: 16})
	if s1.Candidates != s2.Candidates {
		t.Fatalf("candidates differ: %d vs %d", s1.Candidates, s2.Candidates)
	}
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c2.Data[i]) > 1e-9 {
			t.Fatal("MR Init result depends on mapper count")
		}
	}
}

func TestLloydMatchesInProcess(t *testing.T) {
	ds := blobs(t, 4, 100, 5, 40, 9)
	init := seed.KMeansPP(ds, 4, rng.New(10), 0)
	mrRes, stats := Lloyd(ds, init, 30, Config{Mappers: 4})
	inRes := lloyd.Run(ds, init, lloyd.Config{MaxIter: 30})
	if math.Abs(mrRes.Cost-inRes.Cost) > 1e-6*(1+inRes.Cost) {
		t.Fatalf("MR Lloyd cost %v != in-process %v", mrRes.Cost, inRes.Cost)
	}
	if stats.MRRounds != mrRes.Iters {
		t.Fatalf("one MR job per iteration expected: %d jobs, %d iters",
			stats.MRRounds, mrRes.Iters)
	}
	// SeedCost is the seeding's cost; Lloyd does no seeding.
	if stats.SeedCost != 0 {
		t.Fatalf("Lloyd reported seed cost %v; its final cost belongs in Result.Cost", stats.SeedCost)
	}
}

func TestLloydCostTraceMonotone(t *testing.T) {
	ds := blobs(t, 5, 80, 4, 15, 11)
	init := seed.Random(ds, 5, rng.New(12))
	res, _ := Lloyd(ds, init, 25, Config{Mappers: 3})
	for i := 1; i < len(res.CostTrace); i++ {
		if res.CostTrace[i] > res.CostTrace[i-1]*(1+1e-9) {
			t.Fatalf("MR Lloyd cost increased at %d: %v -> %v",
				i, res.CostTrace[i-1], res.CostTrace[i])
		}
	}
}

func TestLloydConvergesAndStops(t *testing.T) {
	ds := blobs(t, 3, 60, 4, 60, 13)
	init := seed.KMeansPP(ds, 3, rng.New(14), 0)
	res, stats := Lloyd(ds, init, 100, Config{})
	if !res.Converged {
		t.Fatal("MR Lloyd did not converge on easy data")
	}
	if stats.MRRounds >= 100 {
		t.Fatalf("MR Lloyd ran all %d iterations", stats.MRRounds)
	}
}
