package lloyd

import (
	"cmp"
	"slices"

	"kmeansll/internal/geom"
)

// trimmed is the Passes backend of trimmed k-means, the classic
// outlier-robust modification the paper's conclusion points at ("several
// modifications to the basic k-means algorithm to suit specific
// applications... It will be interesting to see if such modifications can
// also be efficiently parallelized", §7; k-means with outliers is also
// discussed in §2). Every pass ranks the points by their cost against the
// centers and marks the trim costliest as outliers; Step leaves them out of
// the update, so far-away noise cannot drag centers, and its cost, which
// Drive records in CostTrace, is the kept points'. With trim = 0 every pass
// is the in-process backend's, bit for bit.
type trimmed[T geom.Float] struct {
	chunks[T]
	trim int // outliers per pass: ⌊f·n⌋ for OptTrimmed's fraction f

	assign []int32   // each point's nearest center in the last pass
	costs  []float64 // each point's w·d² to it
	order  []int     // point indices, costliest first
	out    []bool    // the last pass's outliers

	// Assign's outliers, ascending, and its cost over the kept points.
	outliers    []int
	trimmedCost float64
}

// Step ranks the points against centers and returns each center's
// Σw·x ⧺ Σw over its kept points and their cost.
func (p *trimmed[T]) Step(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	p.rank(centers)
	sums, phi := p.sumKept(centers.Cols)
	return sums, phi, nil
}

// Farthest returns the worst-served kept point: an empty cluster is reseeded
// to the point the last Step kept that pays the largest w·d²(x, centers),
// never to an outlier.
func (p *trimmed[T]) Farthest(centers *geom.Matrix) ([]float64, error) {
	i := farthest(p.ds, geom.Convert[T](centers), p.parallelism, p.out)
	return geom.WidenRow(make([]float64, p.ds.Dim()), p.ds.Point(i)), nil
}

// Assign ranks the points against centers and returns their assignment and
// their cost over all points, summed as Cost sums it. It records the
// outliers and the kept points' cost, summed as Step sums it, so a
// converged run's TrimmedCost is its last CostTrace entry.
func (p *trimmed[T]) Assign(centers *geom.Matrix) ([]int32, float64, error) {
	cost := p.rank(centers)
	_, p.trimmedCost = p.sumKept(centers.Cols)
	for i, out := range p.out {
		if out {
			p.outliers = append(p.outliers, i)
		}
	}
	return p.assign, cost, nil
}

// rank assigns every point to its nearest center with the Lloyd step's
// scan, records its w·d², and marks the trim costliest points as outliers,
// the lower index first on ties. It returns φ_X(centers), the chunk
// partials summed in chunk order as Cost sums them.
func (p *trimmed[T]) rank(centers *geom.Matrix) float64 {
	n := p.ds.N()
	p.prepare(centers)
	if p.assign == nil {
		p.assign, p.costs, p.order, p.out = make([]int32, n), make([]float64, n), make([]int, n), make([]bool, n)
	}
	blocked := geom.UseBlocked(centers.Rows, centers.Cols)
	geom.ParallelFor(n, p.parallelism, func(ch, lo, hi int) {
		var s float64
		geom.VisitAssign(p.ds.X, p.snap, p.norms, lo, hi, blocked, func(i int, idx int32, d2 float64) {
			c := p.ds.W(i) * d2
			p.assign[i], p.costs[i] = idx, c
			s += c
		})
		p.phis[ch] = s
	})
	var phi float64
	for _, s := range p.phis {
		phi += s
	}
	clear(p.out)
	if p.trim > 0 {
		for i := range p.order {
			p.order[i] = i
		}
		slices.SortFunc(p.order, func(a, b int) int {
			return cmp.Or(cmp.Compare(p.costs[b], p.costs[a]), cmp.Compare(a, b))
		})
		for _, i := range p.order[:p.trim] {
			p.out[i] = true
		}
	}
	return phi
}

// sumKept sums the points rank kept per chunk, as stepInto sums them: each
// center's Σw·x ⧺ Σw and the cost, the chunks reduced in order.
func (p *trimmed[T]) sumKept(d int) (*geom.Matrix, float64) {
	geom.ParallelFor(p.ds.N(), p.parallelism, func(ch, lo, hi int) {
		sums := p.parts[ch]
		clear(sums.Data)
		var phi float64
		for i := lo; i < hi; i++ {
			if p.out[i] {
				continue
			}
			w := p.ds.W(i)
			row := sums.Row(int(p.assign[i]))
			geom.AddScaled(row[:d], w, p.ds.Point(i))
			row[d] += w
			phi += p.costs[i]
		}
		p.phis[ch] = phi
	})
	return p.reduce()
}
