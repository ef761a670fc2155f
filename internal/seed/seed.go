// Package seed implements the initialization baselines the paper compares
// against: Random (uniform) selection and k-means++ (Arthur & Vassilvitskii,
// SODA 2007 — Algorithm 1 in the paper), including the weighted variant that
// k-means|| and Partition use to recluster their candidate sets.
//
// All functions are generic over the point storage type, return a k×d
// float64 matrix of centers (exact widenings of chosen points) and never
// modify the dataset. When the dataset has fewer than k points, all points
// are returned (callers asking for k ≥ n get the trivially optimal
// seeding). The index draws depend only on the rng state and, for
// k-means++, on the D² weights, so float32 storage changes a seeding only
// where its rounding perturbs a weight (docs/kernels.md).
package seed

import (
	"fmt"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// Random selects min(k, n) distinct points uniformly at random. Point weights
// are ignored, matching the paper's Random baseline ("selects k points
// uniformly at random from the dataset", §4.2).
func Random[T geom.Float](ds *geom.Set[T], k int, r *rng.Rng) *geom.Matrix {
	n := ds.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		panic("seed: k must be positive")
	}
	idx := r.SampleWithoutReplacement(n, k)
	return geom.WidenRows(ds.X, idx)
}

// WeightedRandom selects min(k, n) distinct points with probability
// proportional to their weights (without replacement). Zero-weight points
// are never selected, so fewer come back when fewer have positive weight.
func WeightedRandom[T geom.Float](ds *geom.Set[T], k int, r *rng.Rng) *geom.Matrix {
	n := ds.N()
	if k > n {
		k = n
	}
	if k <= 0 {
		panic("seed: k must be positive")
	}
	if ds.Weight == nil {
		return Random(ds, k, r)
	}
	idx := r.WeightedSampleWithoutReplacement(ds.Weight, k)
	return geom.WidenRows(ds.X, idx)
}

// KMeansPP is Algorithm 1 of the paper: the first center is drawn
// w-proportionally (uniformly for unweighted data); each subsequent center is
// drawn with probability w_x·d²(x, C)/φ_X(C). The distance cache is updated
// incrementally against only the newly chosen center, so the total work is
// O(n·k·d) — the cost of a single Lloyd iteration, as the paper notes.
//
// parallelism controls the distance-update passes; <1 means all CPUs.
func KMeansPP[T geom.Float](ds *geom.Set[T], k int, r *rng.Rng, parallelism int) *geom.Matrix {
	n := ds.N()
	if k <= 0 {
		panic("seed: k must be positive")
	}
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return geom.WidenRows(ds.X, all)
	}

	centers := &geom.Mat[T]{Cols: ds.Dim()}

	// First center: weight-proportional (uniform when unweighted).
	var first int
	if ds.Weight == nil {
		first = r.Intn(n)
	} else {
		first = r.WeightedIndex(ds.Weight)
	}
	centers.AppendRow(ds.Point(first))
	centers.Reserve(k)

	// d2[i] = w_i · d²(x_i, C) in float64, maintained incrementally. Point
	// norms are cached once so every subsequent D² update runs the
	// norm-expansion kernel (SqDistNorm: ‖x‖²+‖c‖²−2⟨x,c⟩, 2/3 of SqDist's
	// flops) — k−1 passes reuse one norm pass. Pinning geom.KernelNaive
	// falls back to the scalar pair kernel instead (exact (a−b)² for
	// float64: the baseline path, and the precise one for data offset far
	// from the origin).
	useNorms := geom.PinnedKernel() != geom.KernelNaive
	pNorms := geom.RowSqNorms(ds.X, nil)
	pairD2 := func(i int, c []T, cNorm T) float64 {
		if useNorms {
			return geom.SqDistNorm(ds.Point(i), c, pNorms[i], cNorm)
		}
		return geom.SqDistPair(ds.Point(i), c, pNorms[i], cNorm)
	}
	d2 := make([]float64, n)
	chunks := geom.ChunkCount(n, parallelism)
	partial := make([]float64, chunks)
	geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
		var s float64
		c0 := centers.Row(0)
		n0 := geom.SqNorm(c0)
		for i := lo; i < hi; i++ {
			d2[i] = ds.W(i) * pairD2(i, c0, n0)
			s += d2[i]
		}
		partial[chunk] = s
	})
	phi := sum(partial)

	for centers.Rows < k {
		if !(phi > 0) {
			// All remaining mass sits exactly on chosen centers (fewer
			// distinct points than k). Fill with uniform picks.
			centers.AppendRow(ds.Point(r.Intn(n)))
			continue
		}
		next := sampleIndex(r, d2, phi)
		centers.AppendRow(ds.Point(next))
		cNew := centers.Row(centers.Rows - 1)
		cNorm := geom.SqNorm(cNew)
		geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
			var s float64
			for i := lo; i < hi; i++ {
				if d2[i] > 0 {
					if nd := ds.W(i) * pairD2(i, cNew, cNorm); nd < d2[i] {
						d2[i] = nd
					}
				}
				s += d2[i]
			}
			partial[chunk] = s
		})
		phi = sum(partial)
	}
	return geom.Widen(centers)
}

// sampleIndex draws an index proportionally to d2 given its precomputed sum.
// Equivalent to r.WeightedIndex but reuses the known total.
func sampleIndex(r *rng.Rng, d2 []float64, total float64) int {
	target := r.Float64() * total
	acc := 0.0
	last := -1
	for i, w := range d2 {
		if w <= 0 {
			continue
		}
		last = i
		acc += w
		if target < acc {
			return i
		}
	}
	if last < 0 {
		panic(fmt.Sprintf("seed: sampleIndex with non-positive total %v", total))
	}
	return last
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
