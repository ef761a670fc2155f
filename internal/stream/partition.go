// Package stream implements the Partition baseline the paper compares
// against (§4.2.1): the one-pass streaming k-means approximation of Ailon,
// Jaiswal and Monteleoni (NIPS 2009), built on the divide-and-conquer scheme
// of Guha et al.
//
// Partition(m) splits the input into m equal groups. Each group is clustered
// with k-means# — a batched k-means++ variant that draws 3·⌈ln k⌉ centers per
// iteration for k iterations, giving O(k·log k) centers per group with a
// constant-factor guarantee. The union of the per-group weighted centers is
// then reclustered to k with (vanilla, weighted) k-means++, mirroring the
// final step of k-means||.
//
// The paper's setting m = √(n/k) minimizes both the per-machine memory and —
// in the parallel implementation, where each group runs on its own machine —
// the total running time. Note the structural contrast the paper draws: the
// intermediate set is Θ(√(nk)·log k), orders of magnitude larger than
// k-means||'s r·ℓ (Table 5), and the parallelism is capped at m machines.
package stream

import (
	"math"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// Config parameterizes a Partition run.
type Config struct {
	// K is the number of final centers. Required.
	K int
	// M is the number of groups; 0 means round(√(n/K)), the paper's setting.
	M int
	// Parallelism bounds how many groups are clustered concurrently
	// (the paper's "m machines"); <1 = all CPUs.
	Parallelism int
	// Seed makes the run deterministic.
	Seed uint64
}

// Stats reports what a Partition run did.
type Stats struct {
	// Groups is the number of groups m actually used.
	Groups int
	// Intermediate is the total number of per-group centers before the final
	// reclustering — the Partition rows of Table 5.
	Intermediate int
	// SeedCost is φ_X of the final k centers.
	SeedCost float64
}

// DefaultM returns the paper's group count √(n/k), at least 1.
func DefaultM(n, k int) int {
	if n <= 0 || k <= 0 {
		return 1
	}
	m := int(math.Round(math.Sqrt(float64(n) / float64(k))))
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return m
}

// Partition runs the baseline and returns k centers plus run statistics.
func Partition[T geom.Float](ds *geom.Set[T], cfg Config) (*geom.Matrix, Stats) {
	if cfg.K <= 0 {
		panic("stream: Config.K must be positive")
	}
	n := ds.N()
	if n == 0 {
		panic("stream: empty dataset")
	}
	m := cfg.M
	if m <= 0 {
		m = DefaultM(n, cfg.K)
	}
	if m > n {
		m = n
	}

	// Shuffle point indices so groups are random (the stream order of the
	// original algorithm), then slice into m equal groups.
	root := rng.New(cfg.Seed)
	perm := root.Perm(n)
	groups := make([][]int, m)
	for g := 0; g < m; g++ {
		lo := g * n / m
		hi := (g + 1) * n / m
		groups[g] = perm[lo:hi]
	}

	// Cluster each group with k-means#, in parallel across groups. Each
	// group gets a deterministic RNG stream keyed by its index.
	type groupResult struct {
		centers *geom.Mat[T]
		weights []float64
	}
	results := make([]groupResult, m)
	baseSeed := cfg.Seed
	geom.ParallelFor(m, cfg.Parallelism, func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			gr := rng.New(baseSeed).Split(uint64(g) + 1)
			sub := ds.Subset(groups[g])
			centers := KMeansSharp(sub, cfg.K, 0, gr)
			w := groupWeights(sub, centers)
			results[g] = groupResult{centers: centers, weights: w}
		}
	})

	// Union the weighted candidates.
	union := geom.NewMatrix(0, ds.Dim())
	union.Cols = ds.Dim()
	var weights []float64
	for _, r := range results {
		for i := 0; i < r.centers.Rows; i++ {
			if r.weights[i] <= 0 {
				continue
			}
			union.AppendRow(geom.WidenRow(make([]float64, ds.Dim()), r.centers.Row(i)))
			weights = append(weights, r.weights[i])
		}
	}
	stats := Stats{Groups: m, Intermediate: union.Rows}

	// Final reclustering with weighted k-means++ (sequential, as in the
	// second round of the paper's parallel realization).
	cds := &geom.Dataset{X: union, Weight: weights}
	final := seed.KMeansPP(cds, cfg.K, root.Split(0), cfg.Parallelism)
	stats.SeedCost = lloyd.Cost(ds, geom.Convert[T](final), cfg.Parallelism)
	return final, stats
}

// KMeansSharp is k-means# (Ailon et al., Algorithm 3): like k-means++, but
// every iteration draws `batch` points from the joint D² distribution, for k
// iterations. The first iteration draws uniformly. batch ≤ 0 selects the
// paper's 3·⌈ln k⌉.
func KMeansSharp[T geom.Float](ds *geom.Set[T], k, batch int, r *rng.Rng) *geom.Mat[T] {
	if batch <= 0 {
		batch = 3 * int(math.Ceil(math.Log(float64(k))))
		if batch < 1 {
			batch = 1
		}
	}
	n := ds.N()
	centers := &geom.Mat[T]{Cols: ds.Dim()}
	cap := k * batch
	if cap > n {
		cap = n
	}

	// Iteration 1: `batch` uniform picks (distinct).
	first := r.SampleWithoutReplacement(n, min(batch, n))
	for _, i := range first {
		centers.AppendRow(ds.Point(i))
	}

	// Maintain w_i·d²(x_i, C) incrementally.
	d2 := make([]float64, n)
	var phi float64
	cNorms := geom.RowSqNorms(centers, nil)
	for i := 0; i < n; i++ {
		_, d := geom.NearestPair(ds.Point(i), centers, cNorms)
		d2[i] = ds.W(i) * d
		phi += d2[i]
	}

	for it := 1; it < k && centers.Rows < cap; it++ {
		if !(phi > 0) {
			break
		}
		from := centers.Rows
		for j := 0; j < batch && centers.Rows < cap; j++ {
			// Draw from the joint distribution; skip zero-mass picks
			// (already-covered points).
			idx := r.WeightedIndex(d2)
			if d2[idx] <= 0 {
				continue
			}
			centers.AppendRow(ds.Point(idx))
			d2[idx] = 0
		}
		if centers.Rows == from {
			break
		}
		phi = 0
		newView := centers.RowRange(from, centers.Rows)
		cNorms := geom.RowSqNorms(&newView, nil)
		for i := 0; i < n; i++ {
			d2[i], _ = geom.FoldPair(ds.Point(i), ds.W(i), d2[i], &newView, cNorms)
			phi += d2[i]
		}
	}
	return centers
}

// groupWeights assigns each group point to its nearest group center and
// returns the per-center weight totals.
func groupWeights[T geom.Float](ds *geom.Set[T], centers *geom.Mat[T]) []float64 {
	w := make([]float64, centers.Rows)
	cNorms := geom.RowSqNorms(centers, nil)
	for i := 0; i < ds.N(); i++ {
		idx, _ := geom.NearestPair(ds.Point(i), centers, cNorms)
		w[idx] += ds.W(i)
	}
	return w
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
