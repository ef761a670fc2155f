package lloyd

import (
	"math"

	"kmeansll/internal/geom"
)

// The accelerated assignment methods produce exactly the same fixed point as
// naive Lloyd (they are exact algorithms, not approximations); they only skip
// distance computations that triangle-inequality bounds prove irrelevant.
// They are bounded, a Passes backend that Drive runs like any other, so they
// share its update, empty-cluster reseed, stop rule and final pass (Assign
// over the returned centers, so Cost and Assign are exact and agree with the
// naive method's). CostTrace for these methods records an UPPER BOUND on the
// cost per iteration (computed from the maintained upper bounds, which are
// not always tight).
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

// pairDist returns the Euclidean distance from point p (squared norm pn) to
// row c of the snapshot.
func pairDist[T geom.Float](p []T, pn T, snap *geom.Mat[T], cNorms []T, c int) float64 {
	return math.Sqrt(geom.SqDistPair(p, snap.Row(c), pn, cNorms[c]))
}

// bounded is the Passes backend of Elkan's and Hamerly's methods. It reuses
// chunks' Assign, farthest-point scan and Step buffers; its Step carries
// each point's assignment and bounds from one call to the next and computes
// only the distances the bounds cannot rule out.
type bounded[T geom.Float] struct {
	chunks[T]
	elkan bool // Elkan's k lower bounds per point, or Hamerly's one

	pNorms []T
	assign []int32
	upper  []float64 // upper bound on d(x, c_assign)
	// lower holds Elkan's n×k lower bounds on d(x, c), or Hamerly's n lower
	// bounds on the distance to the second-closest center.
	lower    []float64
	g        *centerGeometry
	prev     *geom.Matrix // the centers the previous Step saw; nil before the first
	empty    []int        // the clusters the previous Step left empty, in index order
	reseeded []int        // the points Farthest returned since the previous Step
}

// Step moves the bounds from the centers the previous call saw to these,
// then runs one bounded assignment pass. Drive reseeds the clusters a Step
// leaves empty, one Farthest call each in index order; the next Step gives
// each reseeded point its cluster and loosens every bound fully, since the
// reseeded centers jumped.
func (b *bounded[T]) Step(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	n, k, d := b.ds.N(), centers.Rows, centers.Cols
	b.prepare(centers)
	switch {
	case b.prev == nil:
		b.start(centers)
	case len(b.empty) > 0:
		for j, i := range b.reseeded {
			b.assign[i] = int32(b.empty[j])
		}
		for i := range b.upper {
			b.upper[i] = math.Inf(1)
		}
		clear(b.lower)
	default:
		b.moveBounds(centers)
	}
	copy(b.prev.Data, centers.Data)
	b.g.update(centers)
	geom.ParallelFor(n, b.parallelism, func(ch, lo, hi int) {
		clear(b.parts[ch].Data)
		if b.elkan {
			b.phis[ch] = b.elkanSpan(lo, hi, b.parts[ch])
		} else {
			b.phis[ch] = b.hamerlySpan(lo, hi, b.parts[ch])
		}
	})
	sums, phi := b.reduce()
	b.empty, b.reseeded = b.empty[:0], b.reseeded[:0]
	for c := 0; c < k; c++ {
		if sums.Row(c)[d] <= 0 {
			b.empty = append(b.empty, c)
		}
	}
	return sums, phi, nil
}

func (b *bounded[T]) Farthest(centers *geom.Matrix) ([]float64, error) {
	i := farthest(b.ds, geom.Convert[T](centers), b.parallelism, nil)
	b.reseeded = append(b.reseeded, i)
	return geom.WidenRow(make([]float64, b.ds.Dim()), b.ds.Point(i)), nil
}

// start sets up the bounds with a tight initial assignment. Every distance
// of the full n×k pass goes through the row kernel (geom.SqDistRow) —
// computing all k distances batched beats a triangle-pruned scalar scan,
// and leaves every bound tight (an exact distance) instead of a cc-derived
// bound, so the first bounded pass re-evaluates fewer points.
func (b *bounded[T]) start(centers *geom.Matrix) {
	n, k := b.ds.N(), centers.Rows
	b.pNorms = geom.RowSqNorms(b.ds.X, nil)
	b.assign = make([]int32, n)
	b.upper = make([]float64, n)
	if b.elkan {
		b.lower = make([]float64, n*k)
	} else {
		b.lower = make([]float64, n)
	}
	b.g = newCenterGeometry(k)
	b.prev = geom.NewMatrix(k, centers.Cols)
	geom.ParallelFor(n, b.parallelism, func(_, lo, hi int) {
		row := make([]T, k)
		for i := lo; i < hi; i++ {
			geom.SqDistRow(b.ds.Point(i), b.pNorms[i], b.snap, b.norms, row)
			if b.elkan {
				// Exact distances to every center.
				lb := b.lower[i*k : (i+1)*k]
				best, bestD2 := 0, row[0]
				lb[0] = math.Sqrt(float64(row[0]))
				for c := 1; c < k; c++ {
					lb[c] = math.Sqrt(float64(row[c]))
					if row[c] < bestD2 {
						best, bestD2 = c, row[c]
					}
				}
				b.assign[i] = int32(best)
				b.upper[i] = lb[best]
				continue
			}
			// Exact closest and second-closest.
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
			b.assign[i] = int32(best)
			b.upper[i] = bestD
			b.lower[i] = secondD
		}
	})
}

// moveBounds records each center's movement from the centers the previous
// Step saw in g.dist and moves every bound by it.
func (b *bounded[T]) moveBounds(centers *geom.Matrix) {
	n, k := b.ds.N(), centers.Rows
	for c := 0; c < k; c++ {
		row, old := centers.Row(c), b.prev.Row(c)
		var move2 float64
		for j := range row {
			diff := row[j] - old[j]
			move2 += diff * diff
		}
		b.g.dist[c] = math.Sqrt(move2)
	}
	if b.elkan {
		// Standard Elkan bound maintenance after center movement.
		geom.ParallelFor(n, b.parallelism, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				b.upper[i] += b.g.dist[b.assign[i]]
				lb := b.lower[i*k : (i+1)*k]
				for c := 0; c < k; c++ {
					lb[c] -= b.g.dist[c]
					if lb[c] < 0 {
						lb[c] = 0
					}
				}
			}
		})
		return
	}
	// Hamerly: u grows by the movement of the assigned center, l shrinks by
	// the largest movement of any center.
	maxD, secondMaxD := 0.0, 0.0
	maxC := -1
	for c := 0; c < k; c++ {
		if b.g.dist[c] > maxD {
			secondMaxD = maxD
			maxD = b.g.dist[c]
			maxC = c
		} else if b.g.dist[c] > secondMaxD {
			secondMaxD = b.g.dist[c]
		}
	}
	geom.ParallelFor(n, b.parallelism, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b.upper[i] += b.g.dist[b.assign[i]]
			// The second-closest center moved at most maxD — unless the
			// assigned center IS the max mover, in which case secondMaxD.
			if int(b.assign[i]) == maxC {
				b.lower[i] -= secondMaxD
			} else {
				b.lower[i] -= maxD
			}
			if b.lower[i] < 0 {
				b.lower[i] = 0
			}
		}
	})
}

// elkanSpan is Elkan's assignment pass over points [lo, hi), accumulating
// each center's Σw·x ⧺ Σw into sums; it returns the span's upper bound on
// the cost.
func (b *bounded[T]) elkanSpan(lo, hi int, sums *geom.Matrix) float64 {
	k, d, g := sums.Rows, sums.Cols-1, b.g
	var cost float64
	for i := lo; i < hi; i++ {
		p := b.ds.Point(i)
		a := int(b.assign[i])
		lb := b.lower[i*k : (i+1)*k]
		u := b.upper[i]
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
					u = pairDist(p, b.pNorms[i], b.snap, b.norms, a)
					lb[a] = u
					tight = true
					if u <= lb[c] || u <= g.cc[a*k+c]/2 {
						continue
					}
				}
				dc := pairDist(p, b.pNorms[i], b.snap, b.norms, c)
				lb[c] = dc
				if dc < u {
					a, u = c, dc
				}
			}
			b.assign[i] = int32(a)
			b.upper[i] = u
		}
		w := b.ds.W(i)
		cost += w * b.upper[i] * b.upper[i]
		row := sums.Row(a)
		geom.AddScaled(row[:d], w, p)
		row[d] += w
	}
	return cost
}

// hamerlySpan is elkanSpan for Hamerly's method.
func (b *bounded[T]) hamerlySpan(lo, hi int, sums *geom.Matrix) float64 {
	k, d, g := sums.Rows, sums.Cols-1, b.g
	row := make([]T, k)
	var cost float64
	for i := lo; i < hi; i++ {
		p := b.ds.Point(i)
		a := int(b.assign[i])
		m := g.s[a]
		if b.lower[i] > m {
			m = b.lower[i]
		}
		if b.upper[i] > m {
			// Tighten the upper bound and retest.
			b.upper[i] = pairDist(p, b.pNorms[i], b.snap, b.norms, a)
			if b.upper[i] > m {
				// Full scan: closest and second closest, batched through
				// the row kernel (the scan touches every center anyway, so
				// there is nothing to prune).
				geom.SqDistRow(p, b.pNorms[i], b.snap, b.norms, row)
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
				b.assign[i] = int32(a)
				b.upper[i] = bestD
				b.lower[i] = secondD
			}
		}
		w := b.ds.W(i)
		cost += w * b.upper[i] * b.upper[i]
		sum := sums.Row(a)
		geom.AddScaled(sum[:d], w, p)
		sum[d] += w
	}
	return cost
}
