package lloyd

import (
	"slices"

	"kmeansll/internal/geom"
)

// Passes is what Drive needs from a backend: the passes of one Lloyd
// iteration, of an empty-cluster reseed and of the final assignment. The
// in-process backends run each pass as one geom.ParallelFor over chunks
// (Run's naive method, and its Elkan and Hamerly methods, which keep
// per-point bounds across Steps); the networked one (internal/distkm) as
// one RPC fan-out over shards. Only the networked backend's methods can
// fail.
type Passes interface {
	// Step returns each center's Σw·x ⧺ Σw over the points nearest to it
	// (k×(d+1), StepSpan's rows summed in partition order) and
	// φ_X(centers). The matrix may be reused by the next Step call.
	Step(centers *geom.Matrix) (*geom.Matrix, float64, error)
	// Farthest returns the point paying the largest w·d²(x, centers), the
	// lowest index on ties (FarthestSpan's picks reduced in partition
	// order).
	Farthest(centers *geom.Matrix) ([]float64, error)
	// Assign returns every point's nearest center and φ_X(centers).
	Assign(centers *geom.Matrix) ([]int32, float64, error)
}

// Drive is Lloyd's iteration, written once over a Passes backend. Each
// iteration moves every center to the weighted mean of its points
// (Σw·x · (1/Σw)) and then reseeds each empty cluster, in index order, to
// the point Farthest picks against the centers as they stand. It stops once
// no center coordinate changed (compared exactly) or after MaxIter(maxIter)
// iterations, and always ends with one Assign pass, so the result's Cost
// and Assign describe the centers it returns.
//
// Drive continues from `from`: its centers (not modified), its completed
// iterations and their cost trace (zero for a fresh run), and whether they
// converged, in which case it runs only the final Assign pass. after, when
// non-nil, is called after every iteration with the result so far: its
// centers, Iters, CostTrace and Converged, but no Assign or Cost yet.
func Drive(p Passes, from Result, maxIter int, after func(Result) error) (Result, error) {
	limit := MaxIter(maxIter)
	res := Result{Centers: from.Centers.Clone(), Iters: from.Iters, CostTrace: slices.Clone(from.CostTrace), Converged: from.Converged}
	centers := res.Centers
	k, d := centers.Rows, centers.Cols
	for !res.Converged && res.Iters < limit {
		sums, phi, err := p.Step(centers)
		if err != nil {
			return res, err
		}
		moved := false
		var empty []int
		for c := 0; c < k; c++ {
			row := sums.Row(c)
			if row[d] <= 0 {
				empty = append(empty, c)
				continue
			}
			cRow := centers.Row(c)
			inv := 1 / row[d]
			for j := 0; j < d; j++ {
				v := row[j] * inv
				moved = moved || v != cRow[j]
				cRow[j] = v
			}
		}
		for _, c := range empty {
			x, err := p.Farthest(centers)
			if err != nil {
				return res, err
			}
			moved = moved || !slices.Equal(x, centers.Row(c))
			copy(centers.Row(c), x)
		}
		res.Iters++
		res.CostTrace = append(res.CostTrace, phi)
		res.Converged = !moved
		if after != nil {
			if err := after(res); err != nil {
				return res, err
			}
		}
	}
	assign, cost, err := p.Assign(centers)
	if err != nil {
		return res, err
	}
	res.Assign, res.Cost = assign, cost
	return res, nil
}

// StepSpan is one Lloyd iteration's body over points [lo, hi): per-center
// Σw·x ⧺ Σw (a k×(d+1) float64 matrix, widened accumulation) plus the
// span's assignment-cost partial. It scans the blocked engine above
// geom.UseBlocked's crossover, and always for float32. A center no point of
// the span is nearest to keeps an all-zero row.
func StepSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) (*geom.Matrix, float64) {
	sums := geom.NewMatrix(centers.Rows, centers.Cols+1)
	return sums, stepInto(ds, lo, hi, centers, geom.RowSqNorms(centers, nil), sums)
}

// stepInto is StepSpan accumulating into sums, which must be all zero,
// against centers with norms cNorms; it returns the cost partial.
func stepInto[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T], cNorms []T, sums *geom.Matrix) float64 {
	k, d := centers.Rows, centers.Cols
	var phi float64
	geom.VisitAssign(ds.X, centers, cNorms, lo, hi, geom.UseBlocked(k, d), func(i int, idx int32, dist float64) {
		w := ds.W(i)
		row := sums.Row(int(idx))
		geom.AddScaled(row[:d], w, ds.Point(i))
		row[d] += w
		phi += w * dist
	})
	return phi
}

// FarthestSpan returns the point of [lo, hi) paying the largest
// w·d²(x, centers), the lowest index on ties, and that cost; (-1, -1) when
// the span is empty. The scan is the exact pair scan where T has one
// (float64) and the blocked engine otherwise, so a point's cost does not
// depend on the span it is scanned in.
func FarthestSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) (int, float64) {
	return farthestSpan(ds, lo, hi, centers, nil)
}

// farthestSpan is FarthestSpan passing over the points i with skip[i] set
// (none when skip is nil).
func farthestSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T], skip []bool) (int, float64) {
	best, bestCost := -1, -1.0
	geom.VisitAssign(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, false, func(i int, _ int32, d2 float64) {
		if v := ds.W(i) * d2; v > bestCost && (skip == nil || !skip[i]) {
			best, bestCost = i, v
		}
	})
	return best, bestCost
}

// Step is one Lloyd iteration's pass in process, as Run's naive method runs
// it: StepSpan over parallelism chunks, the chunk rows summed in chunk
// order. It returns each center's Σw·x ⧺ Σw (k×(d+1)) and φ_X(centers).
func Step[T geom.Float](ds *geom.Set[T], centers *geom.Matrix, parallelism int) (*geom.Matrix, float64) {
	sums, phi, _ := (&chunks[T]{ds: ds, parallelism: parallelism}).Step(centers)
	return sums, phi
}

// chunks is the in-process Passes backend: every pass is one
// geom.ParallelFor over parallelism chunks, and the chunk partials are
// reduced in chunk order. Step's buffers — the T snapshot of the centers
// and its norms, each chunk's sums and cost partial, and the reduced sums —
// are made by the first Step and zeroed and reused by every later one, so
// a run allocates them once, not once per iteration.
type chunks[T geom.Float] struct {
	ds          *geom.Set[T]
	parallelism int

	snap  *geom.Mat[T]
	norms []T
	parts []*geom.Matrix
	phis  []float64
	sums  *geom.Matrix
}

func (p *chunks[T]) Step(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	p.prepare(centers)
	geom.ParallelFor(p.ds.N(), p.parallelism, func(ch, lo, hi int) {
		clear(p.parts[ch].Data)
		p.phis[ch] = stepInto(p.ds, lo, hi, p.snap, p.norms, p.parts[ch])
	})
	sums, phi := p.reduce()
	return sums, phi, nil
}

// prepare makes Step's buffers on the first call and refreshes the T
// snapshot of the centers and its norms.
func (p *chunks[T]) prepare(centers *geom.Matrix) {
	if p.sums == nil {
		k, d := centers.Rows, centers.Cols
		p.snap = geom.NewMat[T](k, d)
		p.parts = make([]*geom.Matrix, geom.ChunkCount(p.ds.N(), p.parallelism))
		for ch := range p.parts {
			p.parts[ch] = geom.NewMatrix(k, d+1)
		}
		p.phis = make([]float64, len(p.parts))
		p.sums = geom.NewMatrix(k, d+1)
	}
	p.norms = snapshot(p.snap, centers, p.norms)
}

// reduce sums the chunks' rows and cost partials in chunk order.
func (p *chunks[T]) reduce() (*geom.Matrix, float64) {
	clear(p.sums.Data)
	var phi float64
	for ch, part := range p.parts {
		geom.AddScaled(p.sums.Data, 1, part.Data)
		phi += p.phis[ch]
	}
	return p.sums, phi
}

func (p *chunks[T]) Farthest(centers *geom.Matrix) ([]float64, error) {
	i := farthest(p.ds, geom.Convert[T](centers), p.parallelism, nil)
	return geom.WidenRow(make([]float64, p.ds.Dim()), p.ds.Point(i)), nil
}

func (p *chunks[T]) Assign(centers *geom.Matrix) ([]int32, float64, error) {
	assign, cost := Assign(p.ds, geom.Convert[T](centers), p.parallelism)
	return assign, cost, nil
}

// farthest is farthestSpan over parallelism chunks: the index of the
// costliest point not skipped, the lowest on ties (chunks ascend, so the
// first chunk holding the largest cost wins).
func farthest[T geom.Float](ds *geom.Set[T], centers *geom.Mat[T], parallelism int, skip []bool) int {
	n := ds.N()
	idx := make([]int, geom.ChunkCount(n, parallelism))
	cost := make([]float64, len(idx))
	geom.ParallelFor(n, parallelism, func(ch, lo, hi int) { idx[ch], cost[ch] = farthestSpan(ds, lo, hi, centers, skip) })
	best, bestCost := -1, -1.0
	for ch := range idx {
		if cost[ch] > bestCost {
			best, bestCost = idx[ch], cost[ch]
		}
	}
	return best
}
