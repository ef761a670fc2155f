package core

import (
	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// The span bodies below and geom.FoldNearest, the per-round cache update,
// are Algorithm 2's sampling-side per-partition work, written once over the
// point storage type T: the in-process chunks (Init, and mrkm.Init through
// it) and the networked shard workers (internal/distkm) both call them.
// The fold runs the blocked engine when its group's center count clears
// geom.UseBlocked and the scalar pair scan below it; sampling and Step 7
// read the cache the folds leave and compute no distance. The seed-cost
// pass is lloyd.Cost in both backends. All cross-point reductions stay
// float64 in point order, so for equal partitions and seed (and, for
// float32, kernel tier) both backends' partials agree bit for bit.

// SampleSpan is Step 4's body: the global indices of the points that
// round's Bernoulli trials select, in point order. d2 is a span's slice of
// the weighted D² cache and lo the global index of its first point. Point i
// is selected with probability min(1, ℓ·d2_i/φ); its uniform variate is
// rng.PointRand(seed, round, i), so the selection does not depend on how
// the points are partitioned.
func SampleSpan(d2 []float64, lo int, phi, ell float64, seed uint64, round int) []int {
	var sel []int
	for j, d := range d2 {
		if d <= 0 {
			continue
		}
		p := ell * d / phi
		if i := lo + j; p >= 1 || rng.PointRand(seed, round, i) < p {
			sel = append(sel, i)
		}
	}
	return sel
}

// NearWeights is Step 7's body: for each of the k candidates, the total
// input weight of the span's points whose nearest candidate it is, summed
// in point order. near is the span's slice of the nearest-candidate rows
// the folds recorded (geom.FoldNearest) and lo the global index of its
// first point; no distance is computed.
func NearWeights[T geom.Float](ds *geom.Set[T], near []int32, lo, k int) []float64 {
	w := make([]float64, k)
	for j, c := range near {
		w[c] += ds.W(lo + j)
	}
	return w
}

// WeightSpan is Step 7 as a full nearest scan of the span's points against
// every candidate, accumulated in point order: the oracle the tests hold
// NearWeights to.
func WeightSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) []float64 {
	w := make([]float64, centers.Rows)
	geom.Visit(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, func(i int, idx int32, _ float64) {
		w[idx] += ds.W(i)
	})
	return w
}
