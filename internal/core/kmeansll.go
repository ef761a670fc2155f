// Package core implements k-means|| (read "k-means parallel"), the scalable
// k-means++ initialization of Bahmani, Moseley, Vattani, Kumar and
// Vassilvitskii (PVLDB 5(7), 2012) — Algorithm 2 of the paper.
//
// The algorithm replaces the k sequential passes of k-means++ with r ≈ 5
// rounds, each of which samples ~ℓ = Ω(k) points in parallel with probability
// proportional to their squared distance from the current center set. The
// resulting O(ℓ·r) candidates are weighted by the number of input points they
// serve (Step 7) and reclustered down to k centers with weighted k-means++
// (Step 8). Theorem 1 of the paper shows the combination is an
// O(α)-approximation when an α-approximate reclustering algorithm is used.
//
// Two sampling modes are provided, both used in the paper's evaluation:
//
//   - Bernoulli — the algorithm as analyzed: each point x is selected
//     independently with probability min(1, ℓ·d²(x,C)/φ_X(C)). The number of
//     candidates per round is ℓ in expectation.
//   - ExactL — exactly ℓ draws per round from the joint D² distribution
//     ("we begin by sampling exactly ℓ points from the joint distribution in
//     every round", §5.3, used for Figure 5.1 to reduce variance).
//
// Per-point randomness in Bernoulli mode is derived from a counter-based hash
// of (seed, round, point index), so results are bit-identical for a given
// seed regardless of the worker count.
//
// The two distance-heavy passes — the per-round D² cache update and the
// Step 7 weighting — run on geom's blocked pairwise-distance engine (cached
// center norms, tiled inner-product kernels) whenever the round's center
// count clears geom.UseBlocked; tiny rounds keep the scalar pair scan.
package core

import (
	"fmt"
	"math"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// SampleMode selects how each round draws candidates.
type SampleMode int

const (
	// Bernoulli samples each point independently (Algorithm 2, Step 4).
	Bernoulli SampleMode = iota
	// ExactL draws exactly ℓ points per round from the joint D²
	// distribution (the Figure 5.1 variant).
	ExactL
)

// String names the sampling mode the way CLI flags and fit configs spell it.
func (m SampleMode) String() string {
	switch m {
	case Bernoulli:
		return "bernoulli"
	case ExactL:
		return "exact-l"
	default:
		return fmt.Sprintf("SampleMode(%d)", int(m))
	}
}

// ReclusterMethod selects the Step 8 algorithm that reduces the candidate
// set to k centers.
type ReclusterMethod int

const (
	// ReclusterKMeansPP runs weighted k-means++ on the candidates (the
	// paper's choice: "we use k-means++ for reclustering in Step 8", §4.2).
	ReclusterKMeansPP ReclusterMethod = iota
	// ReclusterKMeansPPLloyd additionally refines with weighted Lloyd
	// iterations on the (tiny) candidate set. Cheap and usually better;
	// kept out of the paper-faithful default, used by ablations.
	ReclusterKMeansPPLloyd
	// ReclusterRandom picks k candidates weight-proportionally. Ablation
	// baseline demonstrating that Step 8 needs a provable algorithm.
	ReclusterRandom
)

// String names the recluster method the way CLI flags and fit configs
// spell it.
func (m ReclusterMethod) String() string {
	switch m {
	case ReclusterKMeansPP:
		return "kmeans++"
	case ReclusterKMeansPPLloyd:
		return "kmeans+++lloyd"
	case ReclusterRandom:
		return "random"
	default:
		return fmt.Sprintf("ReclusterMethod(%d)", int(m))
	}
}

// Config parameterizes one k-means|| initialization.
type Config struct {
	// K is the number of centers to produce. Required.
	K int
	// L is the oversampling factor ℓ (expected points sampled per round).
	// The paper evaluates ℓ ∈ {0.1k, 0.5k, k, 2k, 10k}; 0 means 2·K, the
	// setting the paper most often recommends.
	L float64
	// Rounds is the number of sampling rounds r. 0 means automatic:
	// max(5, ⌈K/L⌉), matching the paper's experimental protocol (r = 5
	// "otherwise", r = 15 for ℓ = 0.1k so that r·ℓ ≥ k holds; §4.2).
	Rounds int
	// Mode selects Bernoulli (default) or ExactL sampling.
	Mode SampleMode
	// Recluster selects the Step 8 algorithm (default weighted k-means++).
	Recluster ReclusterMethod
	// RefineIters is the Lloyd iteration budget on the candidate set when
	// Recluster == ReclusterKMeansPPLloyd. 0 means 20.
	RefineIters int
	// Parallelism is the worker count for the per-round passes; <1 = all
	// CPUs.
	Parallelism int
	// Seed makes the run deterministic. Runs with the same seed and config
	// produce identical output for any Parallelism.
	Seed uint64
}

func (c *Config) ell() float64 {
	if c.L > 0 {
		return c.L
	}
	return 2 * float64(c.K)
}

func (c *Config) rounds() int {
	if c.Rounds > 0 {
		return c.Rounds
	}
	r := 5
	if need := int(math.Ceil(float64(c.K) / c.ell())); need > r {
		r = need
	}
	return r
}

// Stats reports what one initialization did — the quantities the paper's
// tables are built from.
type Stats struct {
	// Psi is φ_X(C) after the first (uniform) center — the ψ of Algorithm 2.
	Psi float64
	// PhiTrace[j] is φ_X(C) after round j (PhiTrace[0] == Psi).
	PhiTrace []float64
	// Rounds is the number of sampling rounds executed.
	Rounds int
	// Candidates is |C| before reclustering (Table 5's "number of centers").
	Candidates int
	// RoundCandidates[j] is how many candidates round j added. The parallel
	// time model uses it: round j's update pass scans n × RoundCandidates[j]
	// point-center pairs.
	RoundCandidates []int
	// SeedCost is φ_X of the final k centers (the "seed" columns of
	// Tables 1–2), computed with one extra pass.
	SeedCost float64
	// Passes counts full passes over the input: 1 to seed ψ, 1 per round to
	// update distances, 1 for weighting, 1 for SeedCost.
	Passes int
}

// Init runs k-means|| and returns the k initial centers plus run statistics.
// The dataset may be weighted; weights flow through sampling, Step 7 and the
// reclustering exactly as if each point were replicated.
//
// The points may be stored as float64 or float32. The sampling decisions
// (Bernoulli coin flips, ExactL draws, reclustering) only ever see the
// float64 D² cache, so a run is deterministic for a given seed and
// parallelism-independent in both; float32 storage rounds the cached
// distances, making its chosen centers equivalent in distribution rather
// than bit-identical to the float64 run on the widened data
// (docs/kernels.md). Step 8 reclusters the (tiny) weighted candidate set in
// float64 either way.
func Init[T geom.Float](ds *geom.Set[T], cfg Config) (*geom.Matrix, Stats) {
	if cfg.K <= 0 {
		panic("core: Config.K must be positive")
	}
	n := ds.N()
	if n == 0 {
		panic("core: empty dataset")
	}
	if cfg.K >= n {
		return geom.Widen(ds.X), Stats{Candidates: n, Passes: 0}
	}

	r := rng.New(cfg.Seed)
	ell := cfg.ell()
	rounds := cfg.rounds()

	// Step 1: first center, uniform (weight-proportional when weighted).
	var first int
	if ds.Weight == nil {
		first = r.Intn(n)
	} else {
		first = r.WeightedIndex(ds.Weight)
	}
	centers := &geom.Mat[T]{Cols: ds.Dim()}
	// The candidate set grows to ~1 + r·ℓ rows; reserve once so the
	// per-round AppendRow loop never reallocates mid-run.
	est := 1 + rounds*int(math.Ceil(ell))
	if est > n {
		est = n
	}
	centers.Reserve(est)
	centers.AppendRow(ds.Point(first))

	// Step 2: ψ ← φ_X(C), cached per point. d2 holds w_i·d²(x_i, C)
	// throughout; φ is its sum.
	d2 := make([]float64, n)
	chunks := geom.ChunkCount(n, cfg.Parallelism)
	partial := make([]float64, chunks)
	n0 := geom.RowSqNorms(centers, nil)
	geom.ParallelFor(n, cfg.Parallelism, func(chunk, lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			_, d := geom.NearestPair(ds.Point(i), centers, n0)
			d2[i] = ds.W(i) * d
			s += d2[i]
		}
		partial[chunk] = s
	})
	phi := sum(partial)
	stats := Stats{Psi: phi, PhiTrace: []float64{phi}, Passes: 1}

	// Steps 3–6: sampling rounds.
	for round := 0; round < rounds; round++ {
		if !(phi > 0) {
			break // every point coincides with a center; nothing to sample
		}
		var chosen []int
		switch cfg.Mode {
		case ExactL:
			chosen = sampleExactL(r, d2, int(math.Round(ell)))
		default:
			chosen = sampleBernoulli(cfg.Seed, round, d2, phi, ell, cfg.Parallelism)
		}
		stats.Rounds++
		stats.RoundCandidates = append(stats.RoundCandidates, len(chosen))
		if len(chosen) == 0 {
			stats.PhiTrace = append(stats.PhiTrace, phi)
			continue
		}
		from := centers.Rows
		for _, i := range chosen {
			centers.AppendRow(ds.Point(i))
		}
		// Update cached distances against only the new centers — one pass,
		// blocked above the crossover (per-point min over the round's
		// centers folded into the weighted cache), the scalar pair fold
		// below it.
		newView := centers.RowRange(from, centers.Rows)
		geom.ParallelFor(n, cfg.Parallelism, func(chunk, lo, hi int) {
			partial[chunk] = geom.FoldNearest(ds, d2, lo, hi, &newView)
		})
		phi = sum(partial)
		stats.Passes++
		stats.PhiTrace = append(stats.PhiTrace, phi)
	}
	stats.Candidates = centers.Rows

	// Step 7: weight each candidate by the total weight of the points it
	// serves. One parallel pass with per-chunk accumulators.
	weights := candidateWeights(ds, centers, cfg.Parallelism)
	stats.Passes++

	// Step 8: recluster the weighted candidates down to k, in float64.
	final := recluster(geom.Widen(centers), weights, cfg, r)

	stats.SeedCost = lloyd.Cost(ds, geom.Convert[T](final), cfg.Parallelism)
	stats.Passes++
	return final, stats
}

// sampleBernoulli implements Step 4: each point independently with
// probability min(1, ℓ·d²(x,C)/φ). The uniform variate for point i in a given
// round is a pure function of (seed, round, i) — rng.PointRand — making the
// selection independent of the parallel chunking.
func sampleBernoulli(seedVal uint64, round int, d2 []float64, phi, ell float64, parallelism int) []int {
	n := len(d2)
	chunks := geom.ChunkCount(n, parallelism)
	perChunk := make([][]int, chunks)
	geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
		var sel []int
		for i := lo; i < hi; i++ {
			if d2[i] <= 0 {
				continue
			}
			p := ell * d2[i] / phi
			if p >= 1 || rng.PointRand(seedVal, round, i) < p {
				sel = append(sel, i)
			}
		}
		perChunk[chunk] = sel
	})
	var out []int
	for _, sel := range perChunk {
		out = append(out, sel...)
	}
	return out
}

// sampleExactL draws m indices from the joint distribution proportional to
// d2, deduplicated (a point contributes one candidate no matter how often it
// is drawn, as duplicated centers are useless).
func sampleExactL(r *rng.Rng, d2 []float64, m int) []int {
	if m <= 0 {
		return nil
	}
	alias := rng.NewAlias(d2)
	seen := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for j := 0; j < m; j++ {
		i := alias.Draw(r)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}

// candidateWeights performs Step 7: w_x = Σ of input weights of the points
// whose nearest candidate is x. The candidate set is the largest center set
// the algorithm ever scans (~1 + r·ℓ rows), so this pass benefits most from
// the blocked engine.
func candidateWeights[T geom.Float](ds *geom.Set[T], centers *geom.Mat[T], parallelism int) []float64 {
	n, k := ds.N(), centers.Rows
	chunks := geom.ChunkCount(n, parallelism)
	perChunk := make([][]float64, chunks)
	cNorms := geom.RowSqNorms(centers, nil)
	geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
		w := make([]float64, k)
		geom.Visit(ds.X, centers, cNorms, lo, hi, func(i int, idx int32, _ float64) {
			w[idx] += ds.W(i)
		})
		perChunk[chunk] = w
	})
	weights := make([]float64, k)
	for _, w := range perChunk {
		for c := range weights {
			weights[c] += w[c]
		}
	}
	return weights
}

// recluster implements Step 8 on the weighted candidate set.
func recluster(candidates *geom.Matrix, weights []float64, cfg Config, r *rng.Rng) *geom.Matrix {
	// Candidates that serve no point (weight 0) can still be valid centers,
	// but weighted k-means++ would never pick them; drop them. Keep at least
	// one candidate so the degenerate 1-candidate case works.
	keep := make([]int, 0, candidates.Rows)
	for i, w := range weights {
		if w > 0 {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		keep = append(keep, 0)
		weights[0] = 1
	}
	cds := &geom.Dataset{X: geom.NewMatrix(len(keep), candidates.Cols), Weight: make([]float64, len(keep))}
	for j, i := range keep {
		copy(cds.X.Row(j), candidates.Row(i))
		cds.Weight[j] = weights[i]
	}

	switch cfg.Recluster {
	case ReclusterRandom:
		return seed.WeightedRandom(cds, cfg.K, r)
	case ReclusterKMeansPPLloyd:
		init := seed.KMeansPP(cds, cfg.K, r, cfg.Parallelism)
		iters := cfg.RefineIters
		if iters <= 0 {
			iters = 20
		}
		res := lloyd.Run(cds, init, lloyd.Config{MaxIter: iters, Parallelism: cfg.Parallelism})
		return res.Centers
	default:
		return seed.KMeansPP(cds, cfg.K, r, cfg.Parallelism)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
