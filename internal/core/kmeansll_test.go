package core

import (
	"math"
	"testing"
	"testing/quick"

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

func TestInitShape(t *testing.T) {
	ds := blobs(t, 5, 100, 6, 30, 1)
	centers, stats := Init(ds, Config{K: 5, Seed: 2})
	if centers.Rows != 5 || centers.Cols != 6 {
		t.Fatalf("got %dx%d centers", centers.Rows, centers.Cols)
	}
	if stats.Rounds != 5 {
		t.Fatalf("default rounds = %d, want 5", stats.Rounds)
	}
	if stats.Candidates < 5 {
		t.Fatalf("only %d candidates", stats.Candidates)
	}
	if stats.SeedCost <= 0 {
		t.Fatalf("seed cost %v", stats.SeedCost)
	}
}

func TestPhiTraceDecreases(t *testing.T) {
	ds := blobs(t, 8, 100, 10, 20, 3)
	_, stats := Init(ds, Config{K: 8, L: 16, Rounds: 5, Seed: 4})
	if len(stats.PhiTrace) != stats.Rounds+1 {
		t.Fatalf("trace length %d for %d rounds", len(stats.PhiTrace), stats.Rounds)
	}
	for i := 1; i < len(stats.PhiTrace); i++ {
		if stats.PhiTrace[i] > stats.PhiTrace[i-1]*(1+1e-12) {
			t.Fatalf("phi increased at round %d: %v -> %v", i, stats.PhiTrace[i-1], stats.PhiTrace[i])
		}
	}
	// Theorem 2 predicts a constant-factor drop per round for ℓ = 2k; after
	// 5 rounds on clusterable data the drop should be large.
	if stats.PhiTrace[len(stats.PhiTrace)-1] > stats.Psi/10 {
		t.Fatalf("phi barely dropped: ψ=%v final=%v", stats.Psi, stats.PhiTrace[len(stats.PhiTrace)-1])
	}
}

func TestExpectedCandidatesPerRound(t *testing.T) {
	// With ℓ = 20 and 5 rounds the candidate count should be ≈ 1 + 5·20,
	// modulo Bernoulli variance and the min(1,·) clamp. Average over seeds.
	ds := blobs(t, 4, 500, 5, 25, 5)
	total := 0
	const trials = 20
	for s := 0; s < trials; s++ {
		_, stats := Init(ds, Config{K: 10, L: 20, Rounds: 5, Seed: uint64(s)})
		total += stats.Candidates
	}
	mean := float64(total) / trials
	if mean < 60 || mean > 140 {
		t.Fatalf("mean candidates %v, want ≈ 101", mean)
	}
}

func TestExactLMode(t *testing.T) {
	ds := blobs(t, 4, 200, 5, 25, 6)
	_, stats := Init(ds, Config{K: 8, L: 8, Rounds: 5, Mode: ExactL, Seed: 7})
	// Exactly ℓ draws per round, minus dedup collisions: 1 + 5·8 = 41 max.
	if stats.Candidates > 41 {
		t.Fatalf("ExactL produced %d candidates, cap is 41", stats.Candidates)
	}
	if stats.Candidates < 30 {
		t.Fatalf("ExactL produced only %d candidates", stats.Candidates)
	}
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	ds := blobs(t, 6, 150, 8, 15, 8)
	cfg := Config{K: 6, L: 12, Rounds: 5, Seed: 9}
	cfg.Parallelism = 1
	c1, s1 := Init(ds, cfg)
	cfg.Parallelism = 8
	c8, s8 := Init(ds, cfg)
	if s1.Candidates != s8.Candidates {
		t.Fatalf("candidate counts differ: %d vs %d", s1.Candidates, s8.Candidates)
	}
	for i := range c1.Data {
		if c1.Data[i] != c8.Data[i] {
			t.Fatal("centers differ across parallelism")
		}
	}
}

func TestSeedCostBeatsRandomByFar(t *testing.T) {
	// The paper's headline qualitative claim (Tables 1–3): k-means|| seed
	// cost is dramatically lower than uniform-random seeding on clusterable
	// data.
	ds := blobs(t, 10, 200, 8, 60, 10)
	var llTotal, randTotal float64
	for s := 0; s < 7; s++ {
		_, stats := Init(ds, Config{K: 10, Seed: uint64(s)})
		llTotal += stats.SeedCost
		rc := seed.Random(ds, 10, rng.New(uint64(1000+s)))
		randTotal += lloyd.Cost(ds, rc, 0)
	}
	if llTotal*3 > randTotal {
		t.Fatalf("k-means|| seed cost %v not ≪ random %v", llTotal/7, randTotal/7)
	}
}

func TestComparableToKMeansPP(t *testing.T) {
	// §5: "as soon as r·ℓ ≥ k, the algorithm finds as good of an initial set
	// as that found by k-means++". Compare median final costs.
	ds := blobs(t, 8, 150, 6, 10, 11)
	var ll, pp []float64
	for s := 0; s < 9; s++ {
		centers, _ := Init(ds, Config{K: 8, L: 16, Rounds: 5, Seed: uint64(s)})
		res := lloyd.Run(ds, centers, lloyd.Config{})
		ll = append(ll, res.Cost)
		ppc := seed.KMeansPP(ds, 8, rng.New(uint64(100+s)), 0)
		ppres := lloyd.Run(ds, ppc, lloyd.Config{})
		pp = append(pp, ppres.Cost)
	}
	if med(ll) > 1.5*med(pp) {
		t.Fatalf("k-means|| final %v worse than 1.5× k-means++ %v", med(ll), med(pp))
	}
}

func TestUndersampledRegimeIsWorse(t *testing.T) {
	// r·ℓ < k should give a substantially worse solution (Fig. 5.2/5.3).
	ds := blobs(t, 20, 100, 6, 50, 12)
	var under, ok float64
	for s := 0; s < 7; s++ {
		cu, _ := Init(ds, Config{K: 20, L: 2, Rounds: 2, Seed: uint64(s)}) // 4 < 20
		co, _ := Init(ds, Config{K: 20, L: 40, Rounds: 5, Seed: uint64(s)})
		under += lloyd.Run(ds, cu, lloyd.Config{}).Cost
		ok += lloyd.Run(ds, co, lloyd.Config{}).Cost
	}
	if under < 2*ok {
		t.Fatalf("undersampled cost %v not ≫ well-sampled %v", under/7, ok/7)
	}
}

func TestWeightedDatasetFlowsThrough(t *testing.T) {
	// Clustering a weighted dataset must behave like the replicated dataset:
	// the heavy group must receive a center.
	x := geom.FromRows([][]float64{
		{0, 0}, {0.5, 0}, {100, 100}, {100.5, 100},
	})
	ds := &geom.Dataset{X: x, Weight: []float64{500, 500, 1, 1}}
	centers, _ := Init(ds, Config{K: 2, Seed: 13})
	// One center near (0,0)-group.
	_, d := geom.Nearest([]float64{0.25, 0}, centers)
	if d > 5 {
		t.Fatalf("heavy group has no nearby center (d²=%v); centers=%v", d, centers.Data)
	}
}

func TestKGreaterEqualN(t *testing.T) {
	ds := blobs(t, 1, 4, 3, 1, 14)
	centers, stats := Init(ds, Config{K: 10, Seed: 15})
	if centers.Rows != 4 {
		t.Fatalf("k≥n should return all %d points, got %d", 4, centers.Rows)
	}
	if stats.Candidates != 4 {
		t.Fatalf("stats.Candidates = %d", stats.Candidates)
	}
}

func TestAutoRoundsCoversK(t *testing.T) {
	// ℓ = 0.1k should force ≥ 10 rounds automatically so r·ℓ ≥ k.
	cfg := Config{K: 100, L: 10}
	if got := cfg.rounds(); got != 10 {
		t.Fatalf("auto rounds = %d, want 10", got)
	}
	cfg = Config{K: 10, L: 20}
	if got := cfg.rounds(); got != 5 {
		t.Fatalf("auto rounds = %d, want 5", got)
	}
}

func TestPassesAccounting(t *testing.T) {
	ds := blobs(t, 4, 100, 5, 20, 16)
	_, stats := Init(ds, Config{K: 4, L: 8, Rounds: 3, Seed: 17})
	// 1 (ψ) + 3 (rounds) + 1 (weights) + 1 (seed cost) = 6.
	if stats.Passes != 6 {
		t.Fatalf("passes = %d, want 6", stats.Passes)
	}
}

func TestReclusterMethods(t *testing.T) {
	ds := blobs(t, 6, 120, 5, 40, 18)
	for _, m := range []ReclusterMethod{ReclusterKMeansPP, ReclusterKMeansPPLloyd, ReclusterRandom} {
		centers, _ := Init(ds, Config{K: 6, Seed: 19, Recluster: m})
		if centers.Rows != 6 {
			t.Fatalf("%v returned %d centers", m, centers.Rows)
		}
		if cost := lloyd.Cost(ds, centers, 0); math.IsNaN(cost) || cost <= 0 {
			t.Fatalf("%v produced invalid cost %v", m, cost)
		}
	}
}

func TestRefinedReclusterNoWorse(t *testing.T) {
	ds := blobs(t, 8, 150, 6, 25, 20)
	var plain, refined float64
	for s := 0; s < 9; s++ {
		cp, sp := Init(ds, Config{K: 8, Seed: uint64(s), Recluster: ReclusterKMeansPP})
		cr, sr := Init(ds, Config{K: 8, Seed: uint64(s), Recluster: ReclusterKMeansPPLloyd})
		_ = cp
		_ = cr
		plain += sp.SeedCost
		refined += sr.SeedCost
	}
	if refined > plain*1.05 {
		t.Fatalf("Lloyd-refined recluster (%v) worse than plain (%v)", refined/9, plain/9)
	}
}

func TestDuplicateHeavyPoints(t *testing.T) {
	// A dataset that is mostly one repeated point must not loop forever or
	// return NaN.
	x := geom.NewMatrix(0, 2)
	x.Cols = 2
	for i := 0; i < 100; i++ {
		x.AppendRow([]float64{1, 1})
	}
	x.AppendRow([]float64{5, 5})
	x.AppendRow([]float64{9, 9})
	ds := geom.NewDataset(x)
	centers, _ := Init(ds, Config{K: 3, Seed: 21})
	if centers.Rows > 3 || centers.Rows < 1 {
		t.Fatalf("got %d centers", centers.Rows)
	}
	if cost := lloyd.Cost(ds, centers, 0); math.IsNaN(cost) {
		t.Fatal("NaN cost on degenerate data")
	}
}

// Property: Step 7 candidate weights always sum to the total input weight.
func TestCandidateWeightsSumProperty(t *testing.T) {
	f := func(sv uint64) bool {
		r := rng.New(sv)
		n := 20 + r.Intn(200)
		d := 1 + r.Intn(5)
		x := geom.NewMatrix(n, d)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64() * 5
		}
		ds := geom.NewDataset(x)
		k := 2 + r.Intn(6)
		cand := seed.Random(ds, k, r.Split(1))
		w := WeightSpan(ds, 0, ds.N(), cand)
		var s float64
		for _, v := range w {
			s += v
		}
		return math.Abs(s-float64(n)) < 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Step 7 over four chunks: after a fold of the candidates, the in-process
// backend's weights, reduced in chunk order, add up to the number of points.
func TestLocalWeightsSumToN(t *testing.T) {
	ds := blobs(t, 4, 50, 3, 20, 15)
	centers := seed.Random(ds, 6, rng.New(16))
	l := newLocal(ds, Config{Parallelism: 4})
	if _, err := l.Fold(centers, 0, centers.Rows); err != nil {
		t.Fatal(err)
	}
	w, _ := l.Weights(centers.Rows)
	var total float64
	for _, v := range w {
		total += v
	}
	if math.Abs(total-float64(ds.N())) > 1e-9 {
		t.Fatalf("weights sum to %v, want %d", total, ds.N())
	}
}

// Property: Bernoulli sampling never selects zero-distance points and
// selection probability honors the clamp.
func TestBernoulliSamplingProperty(t *testing.T) {
	f := func(sv uint64) bool {
		r := rng.New(sv)
		n := 50 + r.Intn(200)
		d2 := make([]float64, n)
		var phi float64
		for i := range d2 {
			if r.Float64() < 0.2 {
				d2[i] = 0
			} else {
				d2[i] = r.Float64()
			}
			phi += d2[i]
		}
		if phi == 0 {
			return true
		}
		chosen := SampleSpan(d2, 0, phi, 5, sv, 0)
		for _, i := range chosen {
			if d2[i] <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: pointRand is deterministic and uniform-ish.
func TestPointRandProperty(t *testing.T) {
	if rng.PointRand(1, 2, 3) != rng.PointRand(1, 2, 3) {
		t.Fatal("pointRand not deterministic")
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := rng.PointRand(42, 1, i)
		if v < 0 || v >= 1 {
			t.Fatalf("pointRand out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("pointRand mean %v", mean)
	}
	// Different rounds give different streams.
	same := 0
	for i := 0; i < 1000; i++ {
		if rng.PointRand(42, 1, i) == rng.PointRand(42, 2, i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("rounds collide %d/1000", same)
	}
}

func med(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkInit(b *testing.B) {
	ds := blobs(b, 20, 500, 15, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Init(ds, Config{K: 20, Seed: uint64(i)})
	}
}
