// Package lloyd implements Lloyd's iteration — the local-search phase of
// k-means (§3.1 of the paper) — in sequential and parallel form, for both
// unweighted and weighted datasets (weighted is needed to recluster the
// candidate set in Step 8 of k-means||).
//
// The iteration is written once, Drive, over a Passes backend — a step, an
// empty-cluster reseed and a final assignment — so that it is the paper's
// one MapReduce job per iteration (§3.5) wherever it runs: Run's naive
// method drives it over in-process chunks, and internal/distkm over RPC
// fan-outs to shard workers, both running the same span bodies (StepSpan,
// FarthestSpan) and reducing in partition order.
//
// Refine is the one place an in-process backend is picked: the chunks of
// naive Lloyd and, beyond the textbook algorithm, the accelerated
// assignment methods referenced by the paper's related work (Elkan and
// Hamerly triangle-inequality pruning, accel.go) and two of the
// modifications the paper's conclusion (§7) asks to parallelize, trimmed and
// spherical k-means. All run on Drive, so they share its update, reseed,
// stop rule and final pass. Sculley's mini-batch makes no full pass and
// keeps its own loop.
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

// Method selects OptLloyd's assignment-step implementation (Opt.Kernel).
// All three reach the same fixed point. Which is fastest depends on the
// nearest-center tile (docs/kernels.md, nine shapes measured with the
// ablation_assign experiment): Naive on all nine on the AVX-512 panel rung
// and on seven on the AVX2 rung, where Elkan leads at large d·k; on the Go
// tile, the better of Elkan and Hamerly on all nine.
type Method int

const (
	// Naive scans all k centers per point (with early-exit distance bounds).
	Naive Method = iota
	// Elkan maintains k per-point lower bounds plus center-center distances
	// (Elkan, ICML 2003); O(n·k) memory.
	Elkan
	// Hamerly maintains one lower bound per point (Hamerly, SDM 2010); O(n)
	// memory.
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

// Config holds the run parameters every refinement variant shares.
type Config struct {
	// MaxIter bounds the number of iterations; 0 means DefaultMaxIter.
	// Iteration stops earlier once an iteration moves no center (every
	// coordinate compared exactly), matching "until the solution does not
	// change between two consecutive rounds" (§1).
	MaxIter int
	// Parallelism is the worker count for the assignment step; <1 = all CPUs.
	Parallelism int
}

// DefaultMaxIter is the iteration cap when Config.MaxIter is zero. The
// paper's sequential experiments run "until convergence"; 1000 is far beyond
// every convergence point observed in Table 6 (max ≈ 176).
const DefaultMaxIter = 1000

// MaxIter resolves an iteration budget: n ≤ 0 means DefaultMaxIter.
func MaxIter(n int) int {
	if n > 0 {
		return n
	}
	return DefaultMaxIter
}

// Result reports the outcome of a Lloyd run. Every run ends with one
// assignment pass over the returned centers, so Cost and Assign describe
// Centers whether the run converged or stopped at MaxIter.
type Result struct {
	Centers   *geom.Matrix // final centers (k rows)
	Assign    []int32      // nearest center of every point among Centers
	Cost      float64      // φ_X(Centers)
	Iters     int          // iterations executed
	Converged bool         // true if the last iteration moved no center
	// CostTrace[i] is φ of the centers iteration i+1 assigned against
	// (monotone non-increasing), so after a converged run its last entry
	// equals Cost. Elkan and Hamerly record upper bounds instead (accel.go),
	// trimmed k-means the kept points' cost, and spherical k-means the cost
	// against the centers' unit directions.
	CostTrace []float64
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

// Run executes naive Lloyd's iteration, Refine's OptLloyd variant with the
// Naive kernel, starting from the given float64 centers (which are not
// modified; a copy is made): Drive over Parallelism in-process chunks.
// Points are scanned in their storage type T, against a T snapshot of the
// centers refreshed once per iteration; everything that accumulates across
// points (center sums, weights, costs) stays float64, and the returned
// centers are the float64 masters the update step maintains. It panics if
// centers is empty or wider than the data.
func Run[T geom.Float](ds *geom.Set[T], centers *geom.Matrix, cfg Config) Result {
	return Refine(Opt{}, ds, centers, cfg, 0).Result
}

// snapshot copies the float64 master centers into snap as T and returns the
// refreshed row norms.
func snapshot[T geom.Float](snap *geom.Mat[T], centers *geom.Matrix, cNorms []T) []T {
	for c := 0; c < centers.Rows; c++ {
		geom.ConvertRow(snap.Row(c), centers.Row(c))
	}
	return geom.RowSqNorms(snap, cNorms)
}
