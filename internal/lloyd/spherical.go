package lloyd

import (
	"math"

	"kmeansll/internal/geom"
)

// Spherical k-means clusters directions instead of positions: points and
// centers live on the unit sphere and similarity is cosine. It is the
// standard k-means modification for text/TF-IDF workloads — one of the
// application-specific variants the paper's conclusion (§7) asks about
// parallelizing. Because ‖x−c‖² = 2·(1−cos θ) for unit vectors, spherical
// k-means is exactly Euclidean k-means on the normalized data with one extra
// twist: the centroid is re-normalized after every update. All seeding
// algorithms in this repository therefore apply unchanged to the normalized
// dataset, including k-means||.

// NormalizeRows scales every row of the dataset to unit L2 norm in place.
// Zero rows are left untouched (they cannot be normalized). Returns the
// number of zero rows encountered.
func NormalizeRows[T geom.Float](ds *geom.Set[T]) int {
	zeros := 0
	for i := 0; i < ds.N(); i++ {
		row := ds.Point(i)
		n := math.Sqrt(float64(geom.SqNorm(row)))
		if n == 0 {
			zeros++
			continue
		}
		geom.Scale(row, 1/n)
	}
	return zeros
}

// SphericalResult reports a spherical k-means fit.
type SphericalResult struct {
	Centers *geom.Matrix // unit-norm centers
	Assign  []int32
	// Cohesion is Σ w_i·cos(x_i, c_assign(i)) — the spherical objective
	// (maximize). In [−W, W] for total weight W.
	Cohesion  float64
	Iters     int
	Converged bool
}

// Spherical runs spherical k-means from the given initial centers (which are
// normalized copies; the input is not modified). The dataset must already be
// row-normalized — call NormalizeRows first; rows with zero norm are not
// supported and cause a panic. A run stopped by MaxIter ends with one more
// assignment pass, so Assign and Cohesion describe the centers it returns.
func Spherical[T geom.Float](ds *geom.Set[T], init *geom.Matrix, cfg Config) SphericalResult {
	k, d, n := init.Rows, init.Cols, ds.N()
	centers := init.Clone()
	for c := 0; c < k; c++ {
		row := centers.Row(c)
		nn := math.Sqrt(geom.SqNorm(row))
		if nn == 0 {
			panic("lloyd: Spherical initial center has zero norm")
		}
		geom.Scale(row, 1/nn)
	}
	for i := 0; i < n; i++ {
		if geom.SqNorm(ds.Point(i)) == 0 {
			panic("lloyd: Spherical requires unit-norm rows; call NormalizeRows and drop zero rows")
		}
	}

	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	limit := MaxIter(cfg.MaxIter)
	out := SphericalResult{Centers: centers, Assign: assign}

	sum := make([]float64, k*d)
	weight := make([]float64, k)
	// pass assigns every point to the center of largest cosine, sums each
	// cluster's Σw·x and Σw into sum and weight, records the cohesion, and
	// returns how many assignments changed.
	pass := func() (changed int64) {
		for i := range sum {
			sum[i] = 0
		}
		for i := range weight {
			weight[i] = 0
		}
		var cohesion float64
		chunks := geom.ChunkCount(n, cfg.Parallelism)
		partCoh := make([]float64, chunks)
		partChanged := make([]int64, chunks)
		partSum := make([][]float64, chunks)
		partWeight := make([][]float64, chunks)
		geom.ParallelFor(n, cfg.Parallelism, func(chunk, lo, hi int) {
			ls := make([]float64, k*d)
			lw := make([]float64, k)
			var lcoh float64
			var lchanged int64
			for i := lo; i < hi; i++ {
				p := ds.Point(i)
				best, bestDot := 0, math.Inf(-1)
				for c := 0; c < k; c++ {
					if dot := geom.Dot(p, centers.Row(c)); dot > bestDot {
						best, bestDot = c, dot
					}
				}
				if int32(best) != assign[i] {
					lchanged++
					assign[i] = int32(best)
				}
				w := ds.W(i)
				lcoh += w * bestDot
				geom.AddScaled(ls[best*d:(best+1)*d], w, p)
				lw[best] += w
			}
			partCoh[chunk] = lcoh
			partChanged[chunk] = lchanged
			partSum[chunk] = ls
			partWeight[chunk] = lw
		})
		for c := 0; c < chunks; c++ {
			cohesion += partCoh[c]
			changed += partChanged[c]
			for i := range sum {
				sum[i] += partSum[c][i]
			}
			for i := range weight {
				weight[i] += partWeight[c][i]
			}
		}
		out.Cohesion = cohesion
		return changed
	}
	for it := 0; it < limit; it++ {
		changed := pass()
		out.Iters = it + 1

		for c := 0; c < k; c++ {
			if weight[c] <= 0 {
				continue // empty cluster keeps its direction
			}
			row := centers.Row(c)
			copy(row, sum[c*d:(c+1)*d])
			nn := math.Sqrt(geom.SqNorm(row))
			if nn > 0 {
				geom.Scale(row, 1/nn)
			}
		}
		if changed == 0 && it > 0 {
			out.Converged = true
			break
		}
	}
	if !out.Converged {
		pass()
	}
	return out
}
