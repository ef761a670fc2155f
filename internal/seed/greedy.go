package seed

import (
	"math"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// GreedyKMeansPP is k-means++ with greedy candidate selection: at every step
// it draws `tries` candidates from the D² distribution and keeps the one
// that reduces φ the most. This is the variant Arthur & Vassilvitskii
// mention in the k-means++ paper and the default in scikit-learn
// (tries = 2 + ⌊log k⌋ when tries ≤ 0). It costs `tries` distance passes per
// center but typically lowers the seed cost noticeably — the same
// cost-vs-passes trade k-means|| navigates with oversampling.
func GreedyKMeansPP(ds *geom.Dataset, k, tries int, r *rng.Rng, parallelism int) *geom.Matrix {
	n := ds.N()
	if k <= 0 {
		panic("seed: k must be positive")
	}
	if tries <= 0 {
		tries = 2 + int(math.Log(float64(k)))
	}
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return geom.WidenRows(ds.X, all)
	}

	centers := geom.NewMatrix(0, ds.Dim())
	centers.Cols = ds.Dim()
	var first int
	if ds.Weight == nil {
		first = r.Intn(n)
	} else {
		first = r.WeightedIndex(ds.Weight)
	}
	centers.AppendRow(ds.Point(first))

	d2 := make([]float64, n)
	chunks := geom.ChunkCount(n, parallelism)
	partial := make([]float64, chunks)
	geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
		var s float64
		c0 := centers.Row(0)
		for i := lo; i < hi; i++ {
			d2[i] = ds.W(i) * geom.SqDist(ds.Point(i), c0)
			s += d2[i]
		}
		partial[chunk] = s
	})
	phi := sum(partial)

	cand2 := make([]float64, n) // scratch: distances for the winning candidate

	for centers.Rows < k {
		if !(phi > 0) {
			centers.AppendRow(ds.Point(r.Intn(n)))
			continue
		}
		bestPhi := math.Inf(1)
		bestIdx := -1
		for trial := 0; trial < tries; trial++ {
			cand := sampleIndex(r, d2, phi)
			// Evaluate φ if cand were added.
			cp := ds.Point(cand)
			geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
				var s float64
				for i := lo; i < hi; i++ {
					v := d2[i]
					if v > 0 {
						if nd := ds.W(i) * geom.SqDist(ds.Point(i), cp); nd < v {
							v = nd
						}
					}
					s += v
				}
				partial[chunk] = s
			})
			if got := sum(partial); got < bestPhi {
				bestPhi = got
				bestIdx = cand
			}
		}
		// Commit the winner: recompute d2 against it.
		cp := ds.Point(bestIdx)
		geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				cand2[i] = d2[i]
				if cand2[i] > 0 {
					if nd := ds.W(i) * geom.SqDist(ds.Point(i), cp); nd < cand2[i] {
						cand2[i] = nd
					}
				}
			}
		})
		copy(d2, cand2)
		phi = bestPhi
		centers.AppendRow(cp)
	}
	return centers
}
