// Package mrkm realizes k-means|| and Lloyd's iteration as MapReduce jobs,
// following §3.5 of the paper. The (small) current center set is broadcast
// to every mapper, and every pass over the data is one job: the mappers run
// one of Algorithm 2's span bodies over their input splits in parallel, and
// one reducer adds the partials in span order.
//
// Init is core.Drive over these jobs, one of core's three pass backends:
//
//   - a fold job updates each split's cached distances against the newly
//     added centers and sums φ;
//   - a sampling job reads the caches, needs the φ the previous job
//     produced, and collects each split's Bernoulli picks;
//   - Step 7 is one weighting job, and the seed cost one cost job;
//   - Step 8 (reclustering) runs on "a single machine", the driver, because
//     the candidate set is tiny.
//
// Lloyd's iteration is one job per iteration, reducing Σw·x ⧺ Σw per center.
// Its loop, Iterate, is written once, here, over the LloydPasses interface,
// for Lloyd and for the networked coordinator (internal/distkm).
//
// The per-point distance cache lives with the input partition, mirroring the
// data-local state a Hadoop implementation would persist alongside its split
// between rounds (or recompute; the pass count is identical either way).
package mrkm

import (
	"fmt"
	"math"
	"slices"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
)

// Span is one input partition: points [Lo, Hi) of the dataset. The
// networked realization (internal/distkm) shards with the same function, so
// its per-shard partial sums line up with the mapper partials here term for
// term — the foundation of the bit-identical-parity guarantee.
type Span struct{ Lo, Hi int }

// MakeSpans splits n points into min(mappers, n) contiguous spans
// (mappers < 1 means all CPUs).
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
// assignment-cost partial.
func LloydSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) (*geom.Matrix, float64) {
	d := centers.Cols
	sums := geom.NewMatrix(centers.Rows, d+1)
	var phi float64
	geom.Visit(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, func(i int, idx int32, dist float64) {
		w := ds.W(i)
		row := sums.Row(int(idx))
		geom.AddScaled(row[:d], w, ds.Point(i))
		row[d] += w
		phi += w * dist
	})
	return sums, phi
}

// AssignSpan writes the nearest-center index of every point in [lo, hi)
// into assign (indexed globally, like the D² cache in geom.FoldNearest) and
// returns the span's cost partial — the final-assignment mapper body (a
// distkm worker passes its local slice with lo = 0).
func AssignSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T], assign []int32) float64 {
	var part float64
	geom.Visit(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, func(i int, idx int32, dist float64) {
		assign[i] = idx
		part += ds.W(i) * dist
	})
	return part
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

// Init runs Algorithm 2 with the MapReduce dataflow and returns k centers.
// The sampling is Bernoulli with the same counter-based per-point
// randomness as core.Init, so at Mappers equal to core's Parallelism the
// result is core.Init's, bit for bit; every Recluster method runs. Only the
// mappers run in T; sampling reads the float64 D² cache and Step 8
// reclusters the widened candidates in float64. Init panics on ExactL
// sampling, which needs the whole D² cache in one place.
func Init[T geom.Float](ds *geom.Set[T], cfg core.Config, cluster Config) (*geom.Matrix, Stats) {
	if cfg.Mode != core.Bernoulli {
		panic(fmt.Sprintf("mrkm: %v sampling needs the whole D² cache in one place", cfg.Mode))
	}
	ell, _ := cfg.Schedule()
	j := newJobs(ds, cluster)
	j.ell, j.seed = ell, cfg.Seed
	j.d2 = make([]float64, ds.N())
	for i := range j.d2 {
		j.d2[i] = math.Inf(1)
	}
	centers, st, err := core.Drive(j, cfg, ds.N(), ds.Weight, nil, nil)
	if err != nil {
		panic(err)
	}
	return centers, Stats{Stats: st, MRRounds: st.Passes + st.Rounds}
}

// Lloyd runs Lloyd's iteration where each iteration is one MapReduce job
// (the standard parallel k-means the paper cites from Mahout), with
// Iterate's loop. Centers are mastered in float64 and narrowed to a T
// snapshot the mappers scan; the per-center reduction and the center update
// stay float64, folded in span order. The final assignment and cost come
// from one more span job, which is not an iteration and is not counted as
// one of the run's MR jobs.
func Lloyd[T geom.Float](ds *geom.Set[T], init *geom.Matrix, maxIter int, cluster Config) (lloyd.Result, Stats) {
	res, _ := Iterate(newJobs(ds, cluster), lloyd.Result{Centers: init}, maxIter, nil)
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

// jobs is the MapReduce realization of core.Passes and LloydPasses: one job
// per pass over the spans.
type jobs[T geom.Float] struct {
	ds    *geom.Set[T]
	spans []Span

	// Init only: the data-local distance cache (one entry per point, owned
	// by the mapper that owns the point's span, +Inf before the first fold)
	// and the sampling parameters.
	d2   []float64
	ell  float64
	seed uint64
}

func newJobs[T geom.Float](ds *geom.Set[T], cluster Config) *jobs[T] {
	return &jobs[T]{ds: ds, spans: MakeSpans(ds.N(), cluster.Mappers)}
}

// job runs one MapReduce job: one mapper per span runs body over it, all
// in parallel, and the reducer hands their outputs, in span order, to
// reduce.
func job[V, O any](spans []Span, body func(Span) V, reduce func([]V) O) O {
	vs := make([]V, len(spans))
	geom.ParallelFor(len(spans), len(spans), func(s, _, _ int) { vs[s] = body(spans[s]) })
	return reduce(vs)
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// sumRows adds equal-length vectors element by element, in order.
func sumRows(vs [][]float64) []float64 {
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		geom.AddScaled(out, 1, v)
	}
	return out
}

func (j *jobs[T]) Point(i int) ([]float64, error) {
	return geom.WidenRow(make([]float64, j.ds.Dim()), j.ds.Point(i)), nil
}

func (j *jobs[T]) Fold(cands *geom.Matrix, lo, hi int) (float64, error) {
	view := cands.RowRange(lo, hi)
	c := geom.Convert[T](&view)
	return job(j.spans, func(s Span) float64 {
		return geom.FoldNearest(j.ds, j.d2, s.Lo, s.Hi, c)
	}, sum), nil
}

func (j *jobs[T]) Sample(round int, phi float64, _ *rng.Rng) (*geom.Matrix, error) {
	picks := job(j.spans, func(s Span) []int {
		return core.SampleSpan(j.d2[s.Lo:s.Hi], s.Lo, phi, j.ell, j.seed, round)
	}, func(vs [][]int) []int { return slices.Concat(vs...) })
	return geom.WidenRows(j.ds.X, picks), nil
}

func (j *jobs[T]) Weights(cands *geom.Matrix) ([]float64, error) {
	c := geom.Convert[T](cands)
	return job(j.spans, func(s Span) []float64 {
		return core.WeightSpan(j.ds, s.Lo, s.Hi, c)
	}, sumRows), nil
}

func (j *jobs[T]) Cost(centers *geom.Matrix) (float64, error) {
	c := geom.Convert[T](centers)
	return job(j.spans, func(s Span) float64 {
		return core.CostSpan(j.ds, s.Lo, s.Hi, c)
	}, sum), nil
}

func (j *jobs[T]) LloydStep(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	c := geom.Convert[T](centers)
	// Each span emits its k×(d+1) sums with its φ partial appended, so one
	// element-wise reduction adds both.
	total := job(j.spans, func(s Span) []float64 {
		sums, phi := LloydSpan(j.ds, s.Lo, s.Hi, c)
		return append(sums.Data, phi)
	}, sumRows)
	n := len(total) - 1
	return &geom.Matrix{Rows: centers.Rows, Cols: centers.Cols + 1, Data: total[:n]}, total[n], nil
}

func (j *jobs[T]) Assign(centers *geom.Matrix) ([]int32, float64, error) {
	c := geom.Convert[T](centers)
	assign := make([]int32, j.ds.N())
	cost := job(j.spans, func(s Span) float64 {
		return AssignSpan(j.ds, s.Lo, s.Hi, c, assign)
	}, sum)
	return assign, cost, nil
}
