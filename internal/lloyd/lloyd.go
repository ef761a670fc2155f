// Package lloyd implements Lloyd's iteration — the local-search phase of
// k-means (§3.1 of the paper) — in sequential and parallel form, for both
// unweighted and weighted datasets (weighted is needed to recluster the
// candidate set in Step 8 of k-means||).
//
// Beyond the textbook algorithm it provides the accelerated assignment
// methods referenced by the paper's related work (Elkan and Hamerly
// triangle-inequality pruning, Sculley mini-batch), which the benchmark
// harness uses for ablations.
//
// Every algorithm is written once over the point storage type T (float64 or
// float32, see geom.Float). Centers are mastered in float64 and narrowed to
// a T snapshot the scans read; sums, weights, costs and bounds stay float64,
// so cluster means do not drift with cluster size. float64 runs are the
// bit-reproducible reference; float32 runs follow the tolerance contract in
// docs/kernels.md.
package lloyd

import (
	"fmt"

	"kmeansll/internal/geom"
)

// Method selects the assignment-step implementation.
type Method int

const (
	// Naive scans all k centers per point (with early-exit distance bounds).
	Naive Method = iota
	// Elkan maintains k per-point lower bounds plus center-center distances
	// (Elkan, ICML 2003). Fastest per iteration for moderate k; O(n·k) memory.
	Elkan
	// Hamerly maintains one lower bound per point (Hamerly, SDM 2010).
	// O(n) memory; best when k is large.
	Hamerly
)

// String returns the method's CLI spelling ("naive", "elkan", "hamerly").
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case Elkan:
		return "elkan"
	case Hamerly:
		return "hamerly"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Config controls a Lloyd run.
type Config struct {
	// MaxIter bounds the number of iterations; 0 means DefaultMaxIter.
	// Iteration stops earlier once no assignment changes, matching "until
	// the solution does not change between two consecutive rounds" (§1).
	MaxIter int
	// Parallelism is the worker count for the assignment step; <1 = all CPUs.
	Parallelism int
	// Method selects the assignment algorithm.
	Method Method
}

// DefaultMaxIter is the iteration cap when Config.MaxIter is zero. The
// paper's sequential experiments run "until convergence"; 1000 is far beyond
// every convergence point observed in Table 6 (max ≈ 176).
const DefaultMaxIter = 1000

// Result reports the outcome of a Lloyd run.
type Result struct {
	Centers   *geom.Matrix // final centers (k rows)
	Assign    []int32      // nearest-center index per point
	Cost      float64      // final φ_X(Centers)
	Iters     int          // iterations executed
	Converged bool         // true if stopped by stability, not MaxIter
	CostTrace []float64    // cost after each iteration (monotone non-increasing)
}

// Cost computes φ_X(C) in parallel, using the blocked engine when the
// workload is above the measured crossover (always, for float32 storage).
// Distances come from the storage type's kernels; the weighted sum is
// accumulated in float64.
func Cost[T geom.Float](ds *geom.Set[T], centers *geom.Mat[T], parallelism int) float64 {
	_, cost := scan(ds, centers, parallelism, nil)
	return cost
}

// Assign computes the nearest center of every point in parallel and the
// resulting cost.
func Assign[T geom.Float](ds *geom.Set[T], centers *geom.Mat[T], parallelism int) ([]int32, float64) {
	assign := make([]int32, ds.N())
	_, cost := scan(ds, centers, parallelism, assign)
	return assign, cost
}

// scan is Cost and Assign: one parallel nearest-center pass, writing
// assign[i] when assign is non-nil.
func scan[T geom.Float](ds *geom.Set[T], centers *geom.Mat[T], parallelism int, assign []int32) ([]int32, float64) {
	n := ds.N()
	partial := make([]float64, geom.ChunkCount(n, parallelism))
	blocked := geom.UseBlocked(centers.Rows, centers.Cols)
	cNorms := geom.RowSqNorms(centers, nil)
	geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
		var s float64
		geom.VisitAssign(ds.X, centers, cNorms, lo, hi, blocked, func(i int, idx int32, d2 float64) {
			if assign != nil {
				assign[i] = idx
			}
			s += ds.W(i) * d2
		})
		partial[chunk] = s
	})
	var total float64
	for _, s := range partial {
		total += s
	}
	return assign, total
}

// accumulator holds per-chunk weighted sums for the update step.
type accumulator struct {
	sum    []float64 // k*d weighted coordinate sums
	weight []float64 // k weighted counts
}

// Run executes Lloyd's iteration starting from the given float64 centers
// (which are not modified; a copy is made). Points are scanned in their
// storage type T, against a T snapshot of the centers refreshed once per
// iteration; everything that accumulates across points (center sums,
// weights, costs) stays float64, and the returned centers are the float64
// masters the update step maintains. It panics if centers is empty or
// wider than the data.
func Run[T geom.Float](ds *geom.Set[T], centers *geom.Matrix, cfg Config) Result {
	if centers.Rows == 0 {
		panic("lloyd: no initial centers")
	}
	if centers.Cols != ds.Dim() {
		panic(fmt.Sprintf("lloyd: center dim %d != data dim %d", centers.Cols, ds.Dim()))
	}
	switch cfg.Method {
	case Elkan:
		return runElkan(ds, centers, cfg)
	case Hamerly:
		return runHamerly(ds, centers, cfg)
	}
	return runNaive(ds, centers, cfg)
}

func maxIter(cfg Config) int {
	if cfg.MaxIter > 0 {
		return cfg.MaxIter
	}
	return DefaultMaxIter
}

// snapshot copies the float64 master centers into snap as T and returns the
// refreshed row norms.
func snapshot[T geom.Float](snap *geom.Mat[T], centers *geom.Matrix, cNorms []T) []T {
	for c := 0; c < centers.Rows; c++ {
		geom.ConvertRow(snap.Row(c), centers.Row(c))
	}
	return geom.RowSqNorms(snap, cNorms)
}

func runNaive[T geom.Float](ds *geom.Set[T], init *geom.Matrix, cfg Config) Result {
	k, d, n := init.Rows, init.Cols, ds.N()
	centers := init.Clone()
	snap := geom.NewMat[T](k, d)
	var cNorms []T
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	chunks := geom.ChunkCount(n, cfg.Parallelism)
	accs := make([]accumulator, chunks)
	for c := range accs {
		accs[c] = accumulator{sum: make([]float64, k*d), weight: make([]float64, k)}
	}
	costPartial := make([]float64, chunks)
	changedPartial := make([]int64, chunks)
	blocked := geom.UseBlocked(k, d)

	res := Result{Centers: centers, Assign: assign}
	limit := maxIter(cfg)
	for it := 0; it < limit; it++ {
		cNorms = snapshot(snap, centers, cNorms)
		// Assignment step (fused with accumulation so the data is scanned
		// exactly once per iteration — this is the "one MapReduce pass"
		// structure of §3.5). The blocked path runs the nearest-center
		// kernel and the accumulation tile by tile over the same rows, so
		// each point tile is consumed while still cache-resident.
		geom.ParallelFor(n, cfg.Parallelism, func(chunk, lo, hi int) {
			acc := &accs[chunk]
			for i := range acc.sum {
				acc.sum[i] = 0
			}
			for i := range acc.weight {
				acc.weight[i] = 0
			}
			var cost float64
			var changed int64
			geom.VisitAssign(ds.X, snap, cNorms, lo, hi, blocked, func(i int, idx32 int32, dist float64) {
				if idx32 != assign[i] {
					changed++
					assign[i] = idx32
				}
				idx := int(idx32)
				w := ds.W(i)
				cost += w * dist
				geom.AddScaled(acc.sum[idx*d:(idx+1)*d], w, ds.Point(i))
				acc.weight[idx] += w
			})
			costPartial[chunk] = cost
			changedPartial[chunk] = changed
		})
		var cost float64
		var changed int64
		for c := 0; c < chunks; c++ {
			cost += costPartial[c]
			changed += changedPartial[c]
		}
		res.Iters = it + 1
		res.Cost = cost
		res.CostTrace = append(res.CostTrace, cost)

		// Update step: move each center to the weighted centroid of its
		// cluster; repair empty clusters by reseeding to the point with the
		// largest cost contribution.
		sum, weight := mergeAccs(accs)
		updateCenters(ds, centers, assign, sum, weight, cfg.Parallelism)

		if changed == 0 {
			res.Converged = true
			break
		}
	}
	return res
}

// updateCenters recomputes centers from the accumulated sums, repairing empty
// clusters.
func updateCenters[T geom.Float](ds *geom.Set[T], centers *geom.Matrix, assign []int32, sum, weight []float64, parallelism int) {
	k, d := centers.Rows, centers.Cols
	var empty []int
	for c := 0; c < k; c++ {
		if weight[c] <= 0 {
			empty = append(empty, c)
			continue
		}
		row := centers.Row(c)
		inv := 1 / weight[c]
		for j := 0; j < d; j++ {
			row[j] = sum[c*d+j] * inv
		}
	}
	if len(empty) > 0 {
		repairEmpty(ds, centers, assign, empty, parallelism)
	}
}

// repairEmpty reseeds each empty cluster to the point currently paying the
// highest weighted cost, breaking ties by lowest index (deterministic). The
// chosen point's cluster keeps its remaining members. The scan is the exact
// pair scan where T has one (float64) and the blocked engine otherwise; the
// T snapshot is rebuilt per reseed because each one moves a center.
func repairEmpty[T geom.Float](ds *geom.Set[T], centers *geom.Matrix, assign []int32, empty []int, parallelism int) {
	n := ds.N()
	snap := geom.NewMat[T](centers.Rows, centers.Cols)
	var cNorms []T
	for _, c := range empty {
		cNorms = snapshot(snap, centers, cNorms)
		chunks := geom.ChunkCount(n, parallelism)
		bestIdx := make([]int, chunks)
		bestVal := make([]float64, chunks)
		geom.ParallelFor(n, parallelism, func(chunk, lo, hi int) {
			bi, bv := -1, -1.0
			geom.VisitAssign(ds.X, snap, cNorms, lo, hi, false, func(i int, _ int32, dist float64) {
				if v := ds.W(i) * dist; v > bv {
					bv, bi = v, i
				}
			})
			bestIdx[chunk], bestVal[chunk] = bi, bv
		})
		worst, worstVal := -1, -1.0
		for ch := range bestIdx {
			if bestVal[ch] > worstVal || (bestVal[ch] == worstVal && bestIdx[ch] < worst) {
				worst, worstVal = bestIdx[ch], bestVal[ch]
			}
		}
		if worst < 0 {
			return // n == 0; nothing to do
		}
		geom.WidenRow(centers.Row(c), ds.Point(worst))
		assign[worst] = int32(c)
	}
}
