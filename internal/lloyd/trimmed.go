package lloyd

import (
	"sort"

	"kmeansll/internal/geom"
)

// TrimmedConfig controls Trimmed — trimmed k-means, the classic
// outlier-robust modification the paper's conclusion points at ("several
// modifications to the basic k-means algorithm to suit specific
// applications... It will be interesting to see if such modifications can
// also be efficiently parallelized", §7; k-means with outliers is also
// discussed in §2). Each iteration excludes the TrimFraction of points with
// the largest current cost from the centroid update, so far-away noise
// cannot drag centers.
type TrimmedConfig struct {
	// TrimFraction is the fraction of points (by weight rank) excluded per
	// iteration, in [0, 1). 0 degenerates to plain Lloyd.
	TrimFraction float64
	// MaxIter caps iterations; 0 means DefaultMaxIter.
	MaxIter int
	// Parallelism bounds workers for the assignment passes; <1 = all CPUs.
	Parallelism int
}

// TrimmedResult extends Result with the outlier set of the final iteration.
type TrimmedResult struct {
	Result
	// Outliers holds the indices excluded in the final iteration, sorted.
	Outliers []int
	// TrimmedCost is the final cost over the non-excluded points only.
	TrimmedCost float64
}

// Trimmed runs trimmed k-means from the given initial centers. The reported
// Result.Cost is the cost over ALL points (comparable to plain Lloyd);
// TrimmedCost excludes the outliers. A run stopped by MaxIter ends with one
// more assignment pass, so Assign, Cost, Outliers and TrimmedCost describe
// the centers it returns.
func Trimmed[T geom.Float](ds *geom.Set[T], init *geom.Matrix, cfg TrimmedConfig) TrimmedResult {
	if !(cfg.TrimFraction >= 0 && cfg.TrimFraction < 1) { // negated: NaN too
		panic("lloyd: TrimFraction must be in [0, 1)")
	}
	k, d, n := init.Rows, init.Cols, ds.N()
	centers := init.Clone()
	snap := geom.NewMat[T](k, d)
	var cNorms []T
	assign := make([]int32, n)
	costs := make([]float64, n)
	order := make([]int, n)
	limit := MaxIter(cfg.MaxIter)
	trimCount := int(cfg.TrimFraction * float64(n))

	out := TrimmedResult{}
	out.Centers = centers
	out.Assign = assign

	// pass assigns every point to its nearest center, ranks the points by
	// cost — the top trimCount are the outliers, which it returns marked —
	// and records the outliers and the costs over all and over kept points.
	pass := func() (excluded []bool) {
		cNorms = snapshot(snap, centers, cNorms)
		geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
			geom.VisitAssign(ds.X, snap, cNorms, lo, hi, false, func(i int, idx int32, dist float64) {
				assign[i] = idx
				costs[i] = ds.W(i) * dist
			})
		})
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if costs[order[a]] != costs[order[b]] {
				return costs[order[a]] > costs[order[b]]
			}
			return order[a] < order[b] // deterministic ties
		})
		out.Outliers = append([]int(nil), order[:trimCount]...)
		sort.Ints(out.Outliers)
		excluded = make([]bool, n)
		for _, i := range out.Outliers {
			excluded[i] = true
		}
		out.Cost, out.TrimmedCost = 0, 0
		for i := 0; i < n; i++ {
			out.Cost += costs[i]
			if !excluded[i] {
				out.TrimmedCost += costs[i]
			}
		}
		return excluded
	}

	sum := make([]float64, k*d)
	weight := make([]float64, k)
	var prevOutliers []int

	for it := 0; it < limit; it++ {
		excluded := pass()
		out.Iters = it + 1
		out.CostTrace = append(out.CostTrace, out.TrimmedCost)

		// Centroid update over the kept points.
		for i := range sum {
			sum[i] = 0
		}
		for i := range weight {
			weight[i] = 0
		}
		for i := 0; i < n; i++ {
			if excluded[i] {
				continue
			}
			c := int(assign[i])
			w := ds.W(i)
			geom.AddScaled(sum[c*d:(c+1)*d], w, ds.Point(i))
			weight[c] += w
		}

		moved := false
		var empty []int
		for c := 0; c < k; c++ {
			if weight[c] <= 0 {
				empty = append(empty, c)
				continue
			}
			row := centers.Row(c)
			inv := 1 / weight[c]
			for j := 0; j < d; j++ {
				v := sum[c*d+j] * inv
				if v != row[j] {
					moved = true
				}
				row[j] = v
			}
		}
		// Repair empty clusters by reseeding to the worst-served KEPT point
		// (never an outlier), matching plain Lloyd's repair policy.
		for _, c := range empty {
			worst, worstVal := -1, -1.0
			cNorms = snapshot(snap, centers, cNorms)
			geom.VisitAssign(ds.X, snap, cNorms, 0, n, false, func(i int, _ int32, dist float64) {
				if excluded[i] {
					return
				}
				if v := ds.W(i) * dist; v > worstVal {
					worst, worstVal = i, v
				}
			})
			if worst < 0 {
				break
			}
			geom.WidenRow(centers.Row(c), ds.Point(worst))
			moved = true
		}
		if !moved && equalInts(out.Outliers, prevOutliers) {
			out.Converged = true
			break
		}
		prevOutliers = out.Outliers
	}
	if !out.Converged {
		pass()
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
