package lloyd

import (
	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// DefaultMiniBatchIters is the mini-batch step count when Iters is zero.
const DefaultMiniBatchIters = 100

// MiniBatchConfig controls MiniBatch (Sculley, WWW 2010 — cited as [31] in
// the paper's related work). Mini-batch k-means trades per-iteration exactness
// for throughput: each iteration samples B points and moves only their
// assigned centers with a per-center learning rate 1/count.
type MiniBatchConfig struct {
	BatchSize int // B; 0 means 10·k
	Iters     int // number of mini-batch steps; 0 means DefaultMiniBatchIters
	Seed      uint64
	// Parallelism bounds the workers of the final exact assignment pass
	// (the batch steps themselves are sequential); <1 = all CPUs.
	Parallelism int
}

// MiniBatch runs mini-batch k-means from the given initial centers and
// returns the refined centers along with the exact final cost and
// assignment. Each step draws B distinct points uniformly (Floyd sampling
// via rng.SampleWithoutReplacement) and assigns the whole batch through the
// blocked pairwise-distance engine with cached center norms, so batch
// assignment runs at the same throughput as a Lloyd iteration over B points;
// workloads below the engine's measured crossover (or under a naive-kernel
// pin) keep the early-exit scan. Result.Converged is always false: the
// variant runs a fixed step budget and tests no fixed point.
func MiniBatch[T geom.Float](ds *geom.Set[T], init *geom.Matrix, cfg MiniBatchConfig) Result {
	k, d := init.Rows, init.Cols
	centers := init.Clone()
	snap := geom.NewMat[T](k, d)
	var cNorms []T
	b := cfg.BatchSize
	if b <= 0 {
		b = 10 * k
	}
	if b > ds.N() {
		b = ds.N()
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = DefaultMiniBatchIters
	}
	r := rng.New(cfg.Seed)
	counts := make([]float64, k)
	batchIdx := make([]int32, b)
	gather := geom.NewMat[T](b, d)
	blocked := geom.UseBlocked(k, d)

	for it := 0; it < iters; it++ {
		batch := r.SampleWithoutReplacement(ds.N(), b)
		for j, i := range batch {
			copy(gather.Row(j), ds.Point(i))
		}
		cNorms = snapshot(snap, centers, cNorms)
		geom.VisitAssign(gather, snap, cNorms, 0, b, blocked, func(j int, idx int32, _ float64) {
			batchIdx[j] = idx
		})
		for j, i := range batch {
			c := int(batchIdx[j])
			w := ds.W(i)
			counts[c] += w
			eta := w / counts[c]
			row := centers.Row(c)
			p := gather.Row(j)
			for t := range row {
				row[t] = (1-eta)*row[t] + eta*float64(p[t])
			}
		}
	}
	snapshot(snap, centers, cNorms)
	assign, cost := Assign(ds, snap, cfg.Parallelism)
	return Result{Centers: centers, Assign: assign, Cost: cost, Iters: iters, Converged: false}
}
