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
// The round loop (Steps 1–8) is written once, in Drive, over a Passes
// interface with two realizations: the in-process ParallelFor chunks behind
// Init (mrkm.Init is Init with one chunk per mapper) and RPC fan-outs to
// shard workers (internal/distkm). Each keeps its own partition and sums
// partials in partition order. Both run the same per-partition bodies
// (geom.FoldNearest, SampleSpan, NearWeights) and the same seed-cost scan
// (lloyd.Cost), so at as many chunks as shards they agree bit for bit, in
// float64 and in float32.
//
// Per-point randomness in Bernoulli mode is derived from a counter-based hash
// of (seed, round, point index). The same seed and Parallelism give
// bit-identical results. Across Parallelism values the coin flips are the
// same, so the candidates and seed centers match unless a flip lands within
// rounding of its threshold; φ values and the seed cost differ in the last
// bits, because partials are summed per chunk.
//
// The per-round D² cache update is the only distance pass of Steps 2–7. It
// runs on geom's blocked pairwise-distance engine (cached center norms,
// tiled inner-product kernels) whenever the round's center count clears
// geom.UseBlocked; tiny rounds keep the scalar pair scan. Each fold also
// records, beside a point's cache entry, the candidate row that lowered it,
// so after the last round every point knows its nearest candidate, and
// Step 7 is a weighted histogram of those rows: no distance is computed.
// The seed cost scans as lloyd.Cost does, which for float32 always takes
// the blocked engine.
package core

import (
	"fmt"
	"math"
	"slices"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
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
	// ReclusterKMeansPPLloyd additionally refines with up to 20 weighted
	// Lloyd iterations on the (tiny) candidate set. Cheap and usually
	// better; kept out of the paper-faithful default, used by ablations.
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
	// Parallelism is the worker count for the per-round passes; <1 = all
	// CPUs.
	Parallelism int
	// Seed makes the run deterministic: the same seed, config and
	// Parallelism give bit-identical output. Across Parallelism values the
	// candidates and centers match unless a coin flip lands within rounding
	// of its threshold; φ values differ in the last bits.
	Seed uint64
}

// Schedule resolves the oversampling factor ℓ and the round count r.
func (c *Config) Schedule() (ell float64, rounds int) { return c.ell(), c.rounds() }

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
	// Passes counts full passes over the input: 1 to seed ψ, 1 per round
	// that sampled anything to update distances, 1 for weighting (a
	// histogram of the nearest candidates the updates recorded, with no
	// distance computed), 1 for SeedCost.
	Passes int
}

// Init runs k-means|| in process and returns the k initial centers plus run
// statistics. The dataset may be weighted; weights flow through sampling,
// Step 7 and the reclustering exactly as if each point were replicated.
//
// The points may be stored as float64 or float32. The sampling decisions
// (Bernoulli coin flips, ExactL draws, reclustering) only ever see the
// float64 D² cache, so a run is deterministic for a given seed and
// Parallelism in both; float32 storage rounds the cached distances, making
// its chosen centers equivalent in distribution rather than bit-identical to
// the float64 run on the widened data (docs/kernels.md). Step 8 reclusters
// the (tiny) weighted candidate set in float64 either way.
func Init[T geom.Float](ds *geom.Set[T], cfg Config) (*geom.Matrix, Stats) {
	l := newLocal(ds, cfg)
	centers, stats, err := Drive(l, cfg, ds.N(), ds.Weight, nil, nil)
	if err != nil {
		panic(err)
	}
	return centers, stats
}

// local is the in-process realization of Passes: geom.ParallelFor chunks
// over a dataset in memory, partials summed in chunk order.
type local[T geom.Float] struct {
	ds   *geom.Set[T]
	cfg  Config
	d2   []float64 // w_i·d²(x_i, C), +Inf before the first fold
	near []int32   // the candidate row d2[i] was last lowered by: x_i's nearest
}

// newLocal returns the in-process passes over ds with an empty cache.
func newLocal[T geom.Float](ds *geom.Set[T], cfg Config) *local[T] {
	l := &local[T]{ds: ds, cfg: cfg, d2: make([]float64, ds.N()), near: make([]int32, ds.N())}
	for i := range l.d2 {
		l.d2[i] = math.Inf(1)
	}
	return l
}

// chunks runs body on every chunk concurrently and returns the chunks'
// values in chunk order.
func chunks[T geom.Float, V any](l *local[T], body func(lo, hi int) V) []V {
	out := make([]V, geom.ChunkCount(l.ds.N(), l.cfg.Parallelism))
	geom.ParallelFor(l.ds.N(), l.cfg.Parallelism, func(chunk, lo, hi int) { out[chunk] = body(lo, hi) })
	return out
}

func (l *local[T]) Point(i int) ([]float64, error) {
	return geom.WidenRow(make([]float64, l.ds.Dim()), l.ds.Point(i)), nil
}

func (l *local[T]) Fold(cands *geom.Matrix, first, end int) (float64, error) {
	view := cands.RowRange(first, end)
	c := geom.Convert[T](&view)
	var phi float64
	for _, p := range chunks(l, func(lo, hi int) float64 { return geom.FoldNearest(l.ds, l.d2, l.near, lo, hi, c, first) }) {
		phi += p
	}
	return phi, nil
}

func (l *local[T]) Sample(round int, phi float64, r *rng.Rng) (*geom.Matrix, error) {
	ell := l.cfg.ell()
	if l.cfg.Mode == ExactL {
		return geom.WidenRows(l.ds.X, sampleExactL(r, l.d2, int(math.Round(ell)))), nil
	}
	picks := chunks(l, func(lo, hi int) []int { return SampleSpan(l.d2[lo:hi], lo, phi, ell, l.cfg.Seed, round) })
	return geom.WidenRows(l.ds.X, slices.Concat(picks...)), nil
}

func (l *local[T]) Weights(candidates int) ([]float64, error) {
	weights := make([]float64, candidates)
	for _, w := range chunks(l, func(lo, hi int) []float64 { return NearWeights(l.ds, l.near[lo:hi], lo, candidates) }) {
		geom.AddScaled(weights, 1, w)
	}
	return weights, nil
}

func (l *local[T]) Cost(centers *geom.Matrix) (float64, error) {
	return lloyd.Cost(l.ds, geom.Convert[T](centers), l.cfg.Parallelism), nil
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
