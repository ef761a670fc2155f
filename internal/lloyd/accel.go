package lloyd

import (
	"math"
	"slices"

	"kmeansll/internal/geom"
)

// The accelerated assignment methods produce exactly the same fixed point as
// naive Lloyd (they are exact algorithms, not approximations); they only skip
// distance computations that triangle-inequality bounds prove irrelevant.
// They stop by Drive's rule — once an iteration moves no center — and end
// with Drive's final pass, Assign over the returned centers, so Cost and
// Assign are exact and agree with the naive method's. CostTrace for these
// methods records an UPPER BOUND on the cost per iteration (computed from
// the maintained upper bounds, which are not always tight).
//
// Point-center distances come from the storage type's scalar pair and row
// kernels (geom.SqDistPair, geom.SqDistRow) against a T snapshot of the
// centers; the bound arithmetic — upper/lower bounds, center-center
// geometry, movement deltas — stays float64, computed from the float64
// master centers. Under float32 rounding a bound can be violated by a
// hair, which may cost an extra distance evaluation or leave a point one
// rounding step from the float64 fixed point; both are inside the tolerance
// contract (docs/kernels.md), and iteration stays capped by MaxIter.

// centerGeometry holds per-iteration center-center information shared by
// Elkan and Hamerly.
type centerGeometry struct {
	cc   []float64 // k×k center-center distances (Euclidean, not squared)
	s    []float64 // s[c] = ½·min_{c'≠c} cc[c][c']
	dist []float64 // scratch: movement of each center after an update
}

func newCenterGeometry(k int) *centerGeometry {
	return &centerGeometry{cc: make([]float64, k*k), s: make([]float64, k), dist: make([]float64, k)}
}

func (g *centerGeometry) update(centers *geom.Matrix) {
	k := centers.Rows
	for a := 0; a < k; a++ {
		g.s[a] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		g.cc[a*k+a] = 0
		for b := a + 1; b < k; b++ {
			d := geom.Dist(centers.Row(a), centers.Row(b))
			g.cc[a*k+b] = d
			g.cc[b*k+a] = d
			if h := d / 2; h < g.s[a] {
				g.s[a] = h
			}
			if h := d / 2; h < g.s[b] {
				g.s[b] = h
			}
		}
	}
	if k == 1 {
		g.s[0] = math.Inf(1)
	}
}

// accumulator holds per-chunk weighted sums for the update step.
type accumulator struct {
	sum    []float64 // k*d weighted coordinate sums
	weight []float64 // k weighted counts
}

// moveCenters applies the accumulated sums to the centers, as Drive does,
// and records each center's movement in g.dist. It reports whether any
// center coordinate changed, and whether an empty cluster was reseeded, in
// which case g.dist is stale and callers loosen every bound.
func moveCenters[T geom.Float](g *centerGeometry, ds *geom.Set[T], centers *geom.Matrix, assign []int32, sum, weight []float64, parallelism int) (moved, repaired bool) {
	k, d := centers.Rows, centers.Cols
	var empty []int
	for c := 0; c < k; c++ {
		if weight[c] <= 0 {
			empty = append(empty, c)
			continue
		}
		row := centers.Row(c)
		inv := 1 / weight[c]
		var move2 float64
		for j := 0; j < d; j++ {
			v := sum[c*d+j] * inv
			moved = moved || v != row[j]
			diff := v - row[j]
			move2 += diff * diff
			row[j] = v
		}
		g.dist[c] = math.Sqrt(move2)
	}
	if len(empty) == 0 {
		return moved, false
	}
	reseeded := repairEmpty(ds, centers, assign, empty, parallelism)
	return moved || reseeded, true
}

// repairEmpty is Drive's reseed: each empty cluster, in order, moves to the
// point paying the highest weighted cost against the centers as they stand
// (farthest), and that point is assigned to it. It reports whether any
// reseeded center moved.
func repairEmpty[T geom.Float](ds *geom.Set[T], centers *geom.Matrix, assign []int32, empty []int, parallelism int) (moved bool) {
	for _, c := range empty {
		i := farthest(ds, geom.Convert[T](centers), parallelism)
		row := centers.Row(c)
		x := geom.WidenRow(make([]float64, len(row)), ds.Point(i))
		moved = moved || !slices.Equal(x, row)
		copy(row, x)
		assign[i] = int32(c)
	}
	return moved
}

// pairDist returns the Euclidean distance from point p (squared norm pn) to
// row c of the snapshot.
func pairDist[T geom.Float](p []T, pn T, snap *geom.Mat[T], cNorms []T, c int) float64 {
	return math.Sqrt(geom.SqDistPair(p, snap.Row(c), pn, cNorms[c]))
}

func runElkan[T geom.Float](ds *geom.Set[T], init *geom.Matrix, cfg Config) Result {
	k, d, n := init.Rows, init.Cols, ds.N()
	centers := init.Clone()
	snap := geom.NewMat[T](k, d)
	var cNorms []T
	pNorms := geom.RowSqNorms(ds.X, nil)
	assign := make([]int32, n)
	upper := make([]float64, n)   // upper bound on d(x, c_assign)
	lower := make([]float64, n*k) // lower bounds on d(x, c) for every c
	g := newCenterGeometry(k)
	g.update(centers)
	cNorms = snapshot(snap, centers, cNorms)

	// Initial assignment with full bound setup. Every distance of the full
	// n×k pass goes through the row kernel (geom.SqDistRow) — computing all
	// k distances batched beats a triangle-pruned scalar scan, and leaves
	// every lower bound tight (an exact distance) instead of a cc-derived
	// bound, so the first bounded iteration re-evaluates fewer points.
	geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
		row := make([]T, k)
		for i := lo; i < hi; i++ {
			geom.SqDistRow(ds.Point(i), pNorms[i], snap, cNorms, row)
			lb := lower[i*k : (i+1)*k]
			best, bestD2 := 0, row[0]
			lb[0] = math.Sqrt(float64(row[0]))
			for c := 1; c < k; c++ {
				lb[c] = math.Sqrt(float64(row[c]))
				if row[c] < bestD2 {
					best, bestD2 = c, row[c]
				}
			}
			assign[i] = int32(best)
			upper[i] = lb[best]
		}
	})

	res := Result{Centers: centers}
	chunks := geom.ChunkCount(n, cfg.Parallelism)
	accs := make([]accumulator, chunks)
	for c := range accs {
		accs[c] = accumulator{sum: make([]float64, k*d), weight: make([]float64, k)}
	}
	costPartial := make([]float64, chunks)

	limit := MaxIter(cfg.MaxIter)
	for it := 0; it < limit; it++ {
		g.update(centers)
		cNorms = snapshot(snap, centers, cNorms)
		geom.ParallelFor(n, cfg.Parallelism, func(chunk, lo, hi int) {
			acc := &accs[chunk]
			for i := range acc.sum {
				acc.sum[i] = 0
			}
			for i := range acc.weight {
				acc.weight[i] = 0
			}
			var cost float64
			for i := lo; i < hi; i++ {
				p := ds.Point(i)
				a := int(assign[i])
				lb := lower[i*k : (i+1)*k]
				u := upper[i]
				if u > g.s[a] {
					tight := false
					for c := 0; c < k; c++ {
						if c == a {
							continue
						}
						if u <= lb[c] || u <= g.cc[a*k+c]/2 {
							continue
						}
						if !tight {
							u = pairDist(p, pNorms[i], snap, cNorms, a)
							lb[a] = u
							tight = true
							if u <= lb[c] || u <= g.cc[a*k+c]/2 {
								continue
							}
						}
						dc := pairDist(p, pNorms[i], snap, cNorms, c)
						lb[c] = dc
						if dc < u {
							a, u = c, dc
						}
					}
					assign[i] = int32(a)
					upper[i] = u
				}
				w := ds.W(i)
				cost += w * upper[i] * upper[i]
				geom.AddScaled(acc.sum[a*d:(a+1)*d], w, p)
				acc.weight[a] += w
			}
			costPartial[chunk] = cost
		})
		var costUB float64
		for c := 0; c < chunks; c++ {
			costUB += costPartial[c]
		}
		res.Iters = it + 1
		res.CostTrace = append(res.CostTrace, costUB)

		sum, weight := mergeAccs(accs)
		moved, repaired := moveCenters(g, ds, centers, assign, sum, weight, cfg.Parallelism)
		res.Converged = !moved
		if !moved {
			break
		}
		if repaired {
			// Bounds no longer valid for the repaired centers; loosen fully.
			geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					upper[i] = math.Inf(1)
					lb := lower[i*k : (i+1)*k]
					for c := range lb {
						lb[c] = 0
					}
				}
			})
			continue
		}
		// Standard Elkan bound maintenance after center movement.
		geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				upper[i] += g.dist[assign[i]]
				lb := lower[i*k : (i+1)*k]
				for c := 0; c < k; c++ {
					lb[c] -= g.dist[c]
					if lb[c] < 0 {
						lb[c] = 0
					}
				}
			}
		})
	}
	res.Assign, res.Cost = Assign(ds, geom.Convert[T](centers), cfg.Parallelism)
	return res
}

func runHamerly[T geom.Float](ds *geom.Set[T], init *geom.Matrix, cfg Config) Result {
	k, d, n := init.Rows, init.Cols, ds.N()
	centers := init.Clone()
	snap := geom.NewMat[T](k, d)
	var cNorms []T
	pNorms := geom.RowSqNorms(ds.X, nil)
	assign := make([]int32, n)
	upper := make([]float64, n)
	lower := make([]float64, n) // lower bound on distance to second-closest center
	g := newCenterGeometry(k)
	cNorms = snapshot(snap, centers, cNorms)

	// Initial assignment: exact closest and second-closest, the full k-scan
	// batched through the row kernel.
	geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
		row := make([]T, k)
		for i := lo; i < hi; i++ {
			geom.SqDistRow(ds.Point(i), pNorms[i], snap, cNorms, row)
			best := -1
			bestD, secondD := math.Inf(1), math.Inf(1)
			for c := 0; c < k; c++ {
				dc := math.Sqrt(float64(row[c]))
				if dc < bestD {
					secondD = bestD
					best, bestD = c, dc
				} else if dc < secondD {
					secondD = dc
				}
			}
			assign[i] = int32(best)
			upper[i] = bestD
			lower[i] = secondD
		}
	})

	res := Result{Centers: centers}
	chunks := geom.ChunkCount(n, cfg.Parallelism)
	accs := make([]accumulator, chunks)
	for c := range accs {
		accs[c] = accumulator{sum: make([]float64, k*d), weight: make([]float64, k)}
	}
	costPartial := make([]float64, chunks)

	limit := MaxIter(cfg.MaxIter)
	for it := 0; it < limit; it++ {
		g.update(centers)
		cNorms = snapshot(snap, centers, cNorms)
		geom.ParallelFor(n, cfg.Parallelism, func(chunk, lo, hi int) {
			acc := &accs[chunk]
			for i := range acc.sum {
				acc.sum[i] = 0
			}
			for i := range acc.weight {
				acc.weight[i] = 0
			}
			row := make([]T, k)
			var cost float64
			for i := lo; i < hi; i++ {
				p := ds.Point(i)
				a := int(assign[i])
				m := g.s[a]
				if lower[i] > m {
					m = lower[i]
				}
				if upper[i] > m {
					// Tighten the upper bound and retest.
					upper[i] = pairDist(p, pNorms[i], snap, cNorms, a)
					if upper[i] > m {
						// Full scan: closest and second closest, batched
						// through the row kernel (the scan touches every
						// center anyway, so there is nothing to prune).
						geom.SqDistRow(p, pNorms[i], snap, cNorms, row)
						best, bestD, secondD := a, math.Sqrt(float64(row[a])), math.Inf(1)
						for c := 0; c < k; c++ {
							if c == a {
								continue
							}
							dc := math.Sqrt(float64(row[c]))
							if dc < bestD {
								secondD = bestD
								best, bestD = c, dc
							} else if dc < secondD {
								secondD = dc
							}
						}
						a = best
						assign[i] = int32(a)
						upper[i] = bestD
						lower[i] = secondD
					}
				}
				w := ds.W(i)
				cost += w * upper[i] * upper[i]
				geom.AddScaled(acc.sum[a*d:(a+1)*d], w, p)
				acc.weight[a] += w
			}
			costPartial[chunk] = cost
		})
		var costUB float64
		for c := 0; c < chunks; c++ {
			costUB += costPartial[c]
		}
		res.Iters = it + 1
		res.CostTrace = append(res.CostTrace, costUB)

		sum, weight := mergeAccs(accs)
		moved, repaired := moveCenters(g, ds, centers, assign, sum, weight, cfg.Parallelism)
		res.Converged = !moved
		if !moved {
			break
		}
		if repaired {
			geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					upper[i] = math.Inf(1)
					lower[i] = 0
				}
			})
			continue
		}
		// Bound maintenance: u grows by the movement of the assigned center,
		// l shrinks by the largest movement of any center.
		maxD, secondMaxD := 0.0, 0.0
		maxC := -1
		for c := 0; c < k; c++ {
			if g.dist[c] > maxD {
				secondMaxD = maxD
				maxD = g.dist[c]
				maxC = c
			} else if g.dist[c] > secondMaxD {
				secondMaxD = g.dist[c]
			}
		}
		geom.ParallelFor(n, cfg.Parallelism, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				upper[i] += g.dist[assign[i]]
				// The second-closest center moved at most maxD — unless the
				// assigned center IS the max mover, in which case secondMaxD.
				if int(assign[i]) == maxC {
					lower[i] -= secondMaxD
				} else {
					lower[i] -= maxD
				}
				if lower[i] < 0 {
					lower[i] = 0
				}
			}
		})
	}
	res.Assign, res.Cost = Assign(ds, geom.Convert[T](centers), cfg.Parallelism)
	return res
}

func mergeAccs(accs []accumulator) (sum, weight []float64) {
	sum, weight = accs[0].sum, accs[0].weight
	for c := 1; c < len(accs); c++ {
		for i := range sum {
			sum[i] += accs[c].sum[i]
		}
		for i := range weight {
			weight[i] += accs[c].weight[i]
		}
	}
	return sum, weight
}
