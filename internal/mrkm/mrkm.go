// Package mrkm realizes k-means|| and Lloyd's iteration as MapReduce jobs,
// following §3.5 of the paper. The (small) current center set is broadcast
// to every mapper, and every pass over the data is one job: the mappers run
// over their input splits in parallel, and one reducer adds the partials in
// split order.
//
// In one process a job is one geom.ParallelFor over Mappers chunks, which
// is exactly core.Init's pass backend at Parallelism = Mappers, so Init is
// core.Init run at that parallelism: a fold job per round updates each
// split's cached distances and sums φ, a sampling job collects each split's
// Bernoulli picks, Step 7 is one weighting job and the seed cost one cost
// job; Step 8 (reclustering) runs on "a single machine", the driver,
// because the candidate set is tiny. The networked coordinator
// (internal/distkm) shards with MakeSpans, the same partition, so its fits
// agree with Init bit for bit in both precisions.
//
// Lloyd's iteration is one job per iteration, reducing Σw·x ⧺ Σw per center
// (LloydSpan). Its loop, Iterate, is written once, here, over the
// LloydPasses interface, for Lloyd and for the networked coordinator.
package mrkm

import (
	"fmt"
	"slices"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

// Span is one input partition: points [Lo, Hi) of the dataset. The
// networked realization (internal/distkm) shards with MakeSpans, whose
// spans are geom.ParallelFor's chunks, so its per-shard partial sums line
// up with the mapper partials here term for term — the foundation of the
// bit-identical-parity guarantee.
type Span struct{ Lo, Hi int }

// MakeSpans splits n points into min(mappers, n) contiguous spans
// (mappers < 1 means all CPUs): the chunks geom.ParallelFor(n, mappers)
// runs.
func MakeSpans(n, mappers int) []Span {
	m := geom.Workers(mappers)
	if m > n {
		m = n
	}
	if m < 1 {
		m = 1
	}
	out := make([]Span, m)
	for i := 0; i < m; i++ {
		out[i] = Span{Lo: i * n / m, Hi: (i + 1) * n / m}
	}
	return out
}

// LloydSpan is one Lloyd iteration's mapper body: per-center Σw·x ⧺ Σw (a
// k×(d+1) float64 matrix, widened accumulation) plus the span's
// assignment-cost partial. It scans as lloyd.Run does: the blocked engine
// above geom.UseBlocked's crossover, and always for float32.
func LloydSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) (*geom.Matrix, float64) {
	k, d := centers.Rows, centers.Cols
	sums := geom.NewMatrix(k, d+1)
	var phi float64
	cNorms := geom.RowSqNorms(centers, nil)
	geom.VisitAssign(ds.X, centers, cNorms, lo, hi, geom.UseBlocked(k, d), func(i int, idx int32, dist float64) {
		w := ds.W(i)
		row := sums.Row(int(idx))
		geom.AddScaled(row[:d], w, ds.Point(i))
		row[d] += w
		phi += w * dist
	})
	return sums, phi
}

// Stats describes an MR-realized run: the driver's statistics (Init only)
// plus the job count.
type Stats struct {
	core.Stats
	// MRRounds is the number of MapReduce jobs executed, each one full pass
	// over the input: Init runs one per pass counted in Passes (folds, Step
	// 7, seed cost) and one per sampling round, Lloyd one per iteration.
	MRRounds int
}

// Config sizes the cluster the jobs run on.
type Config struct {
	// Mappers is the number of map tasks (the paper's "machines"); <1 = all
	// CPUs.
	Mappers int
}

// Init runs Algorithm 2 with the MapReduce dataflow and returns k centers:
// core.Init with one chunk per mapper (Parallelism = Mappers, overriding
// cfg's), so the result is core.Init's at that parallelism, bit for bit, in
// either storage precision; every Recluster method runs. Init panics on
// ExactL sampling, which needs the whole D² cache in one place.
func Init[T geom.Float](ds *geom.Set[T], cfg core.Config, cluster Config) (*geom.Matrix, Stats) {
	if cfg.Mode != core.Bernoulli {
		panic(fmt.Sprintf("mrkm: %v sampling needs the whole D² cache in one place", cfg.Mode))
	}
	cfg.Parallelism = cluster.Mappers
	centers, st := core.Init(ds, cfg)
	return centers, Stats{Stats: st, MRRounds: st.Passes + st.Rounds}
}

// Lloyd runs Lloyd's iteration where each iteration is one MapReduce job
// (the standard parallel k-means the paper cites from Mahout), with
// Iterate's loop. Centers are mastered in float64 and narrowed to a T
// snapshot the mappers scan; the per-center reduction and the center update
// stay float64, folded in mapper order. The final assignment and cost come
// from lloyd.Assign over the same chunks, which is not an iteration and is
// not counted as one of the run's MR jobs.
func Lloyd[T geom.Float](ds *geom.Set[T], init *geom.Matrix, maxIter int, cluster Config) (lloyd.Result, Stats) {
	res, _ := Iterate(jobs[T]{ds: ds, mappers: cluster.Mappers}, lloyd.Result{Centers: init}, maxIter, nil)
	return res, Stats{MRRounds: res.Iters}
}

// LloydPasses is what Iterate needs from a realization: the passes of one
// MapReduce-style Lloyd iteration and of the final assignment. Only the
// networked realization's methods can fail.
type LloydPasses interface {
	// LloydStep returns each center's Σw·x ⧺ Σw over the points nearest to
	// it (k×(d+1)) and φ_X(centers).
	LloydStep(centers *geom.Matrix) (*geom.Matrix, float64, error)
	// Assign returns every point's nearest center and φ_X(centers).
	Assign(centers *geom.Matrix) ([]int32, float64, error)
}

// MaxIter resolves a Lloyd iteration budget: n ≤ 0 means 20, the paper's
// bound on parallel Lloyd (§4.2).
func MaxIter(n int) int {
	if n <= 0 {
		return 20
	}
	return n
}

// Iterate runs MapReduce-style Lloyd iterations: each moves every center to
// the weighted mean of its points, an empty cluster keeps its center, and
// the loop stops once no center moves or after MaxIter(maxIter)
// iterations. It continues from `from`: its centers, its completed
// iterations and their cost trace (zero for a fresh run). after, when
// non-nil, is called after every iteration with the result so far. The
// final pass assigns every point to the final centers and reports their
// cost.
func Iterate(p LloydPasses, from lloyd.Result, maxIter int, after func(lloyd.Result) error) (lloyd.Result, error) {
	maxIter = MaxIter(maxIter)
	res := lloyd.Result{Centers: from.Centers.Clone(), Iters: from.Iters, CostTrace: slices.Clone(from.CostTrace)}
	if n := len(res.CostTrace); n > 0 {
		res.Cost = res.CostTrace[n-1]
	}
	centers := res.Centers
	k, d := centers.Rows, centers.Cols
	for res.Iters < maxIter {
		sums, phi, err := p.LloydStep(centers)
		if err != nil {
			return res, err
		}
		maxMove := 0.0
		for c := 0; c < k; c++ {
			row := sums.Row(c)
			if row[d] <= 0 {
				continue // empty cluster keeps its previous position
			}
			cRow := centers.Row(c)
			var move float64
			for j := 0; j < d; j++ {
				v := row[j] / row[d]
				diff := v - cRow[j]
				move += diff * diff
				cRow[j] = v
			}
			if move > maxMove {
				maxMove = move
			}
		}
		res.Iters++
		res.Cost = phi
		res.CostTrace = append(res.CostTrace, phi)
		if after != nil {
			if err := after(res); err != nil {
				return res, err
			}
		}
		if maxMove == 0 {
			res.Converged = true
			break
		}
	}

	// res.Cost above is w.r.t. the previous centers; report the final
	// assignment and cost against the final centers.
	assign, cost, err := p.Assign(centers)
	if err != nil {
		return res, err
	}
	res.Assign, res.Cost = assign, cost
	return res, nil
}

// jobs is the MapReduce realization of LloydPasses: one job per pass, a
// mapper per geom.ParallelFor chunk.
type jobs[T geom.Float] struct {
	ds      *geom.Set[T]
	mappers int
}

func (j jobs[T]) LloydStep(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	c := geom.Convert[T](centers)
	parts := make([]*geom.Matrix, geom.ChunkCount(j.ds.N(), j.mappers))
	phis := make([]float64, len(parts))
	geom.ParallelFor(j.ds.N(), j.mappers, func(s, lo, hi int) { parts[s], phis[s] = LloydSpan(j.ds, lo, hi, c) })
	sums := geom.NewMatrix(centers.Rows, centers.Cols+1)
	var phi float64
	for s, part := range parts {
		geom.AddScaled(sums.Data, 1, part.Data)
		phi += phis[s]
	}
	return sums, phi, nil
}

func (j jobs[T]) Assign(centers *geom.Matrix) ([]int32, float64, error) {
	assign, cost := lloyd.Assign(j.ds, geom.Convert[T](centers), j.mappers)
	return assign, cost, nil
}
