// Package mrkm realizes k-means|| and Lloyd's iteration as MapReduce jobs on
// the engine in internal/mr, following §3.5 of the paper:
//
//   - the (small) current center set C is broadcast to every mapper;
//   - one sampling round of Algorithm 2 is ONE map pass: each mapper updates
//     its points' cached distances against the newly added centers, computes
//     its partition's contribution to φ_X(C), and independently samples
//     candidates; the reducer sums φ and collects the candidates;
//   - Step 7 (weighting) is one map pass emitting (center, weight) pairs
//     through a summing combiner;
//   - Step 8 (reclustering) runs on "a single machine" — sequential weighted
//     k-means++ — because the candidate set is tiny;
//   - one Lloyd iteration is one map pass emitting (center, Σw·x ⧺ Σw)
//     through a vector-summing combiner.
//
// The per-point distance cache lives with the input partition, mirroring the
// data-local state a Hadoop implementation would persist alongside its split
// between rounds (or recompute; the pass count is identical either way).
package mrkm

import (
	"math"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/mr"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
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

// Defaults resolves the oversampling factor ℓ and round count of Algorithm 2
// exactly as Init does: ℓ = 2k when unset, rounds = max(5, ⌈k/ℓ⌉) when
// unset. Shared with distkm so both drivers run identical schedules.
func Defaults(cfg core.Config) (ell float64, rounds int) {
	ell = cfg.L
	if ell <= 0 {
		ell = 2 * float64(cfg.K)
	}
	rounds = cfg.Rounds
	if rounds <= 0 {
		rounds = 5
		if need := int(math.Ceil(float64(cfg.K) / ell)); need > rounds {
			rounds = need
		}
	}
	return ell, rounds
}

// The span bodies below are the per-partition mapper functions of the
// dataflow, written once over the point storage type T. The networked
// realization (internal/distkm) runs the same functions on its workers, so
// for equal spans and seed (and, for float32, kernel tier) a distributed fit
// is bit-identical to Init+Lloyd here. Each body runs the blocked engine
// when its center count clears geom.UseBlocked and the scalar pair scan
// below it, exactly as core.Init chooses. All cross-point reductions stay
// float64 in point order.

// UpdateSpan folds centers[from:] into the weighted D² cache of points
// [lo, hi) and returns the span's φ partial — the cache-update mapper body
// of Algorithm 2's per-round pass.
func UpdateSpan[T geom.Float](ds *geom.Set[T], d2 []float64, lo, hi int, centers *geom.Mat[T], from int) float64 {
	newView := centers.RowRange(from, centers.Rows)
	if newView.Rows == 0 {
		var part float64
		for i := lo; i < hi; i++ {
			part += d2[i]
		}
		return part
	}
	return geom.FoldNearest(ds, d2, lo, hi, &newView)
}

// WeightSpan is the Step 7 mapper body: the total input weight of the
// span's points served by each candidate, accumulated in point order.
func WeightSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) []float64 {
	w := make([]float64, centers.Rows)
	geom.Visit(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, func(i int, idx int32, _ float64) {
		w[idx] += ds.W(i)
	})
	return w
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

// CostSpan is the φ partial of points [lo, hi) against an arbitrary center
// set — the evaluation-pass mapper body.
func CostSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T]) float64 {
	var part float64
	geom.Visit(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, func(i int, _ int32, dist float64) {
		part += ds.W(i) * dist
	})
	return part
}

// AssignSpan writes the nearest-center index of every point in [lo, hi)
// into assign (indexed globally, like d2 in UpdateSpan) and returns the
// span's cost partial — the final-assignment mapper body (a distkm worker
// passes its local slice with lo = 0).
func AssignSpan[T geom.Float](ds *geom.Set[T], lo, hi int, centers *geom.Mat[T], assign []int32) float64 {
	var part float64
	geom.Visit(ds.X, centers, geom.RowSqNorms(centers, nil), lo, hi, func(i int, idx int32, dist float64) {
		assign[i] = idx
		part += ds.W(i) * dist
	})
	return part
}

// Stats describes an MR-realized run.
type Stats struct {
	// MRRounds is the number of MapReduce jobs executed (each job is one
	// full pass over the input).
	MRRounds int
	// Candidates is |C| before reclustering.
	Candidates int
	// SeedCost is φ_X of the k centers produced by Init.
	SeedCost float64
	// Counters aggregates engine counters over all jobs.
	Counters mr.Counters
	// Psi is φ after the first center (Init only).
	Psi float64
	// PhiTrace is φ after each sampling round (Init only).
	PhiTrace []float64
}

// Config parameterizes the simulated cluster.
type Config struct {
	// Mappers is the number of map tasks (the paper's "machines"); <1 = all
	// CPUs.
	Mappers int
	// Reducers is the number of reduce tasks; <1 = Mappers.
	Reducers int
}

func (c Config) engine() mr.Config { return mr.Config{Mappers: c.Mappers, Reducers: c.Reducers} }

// Init runs Algorithm 2 with the MapReduce dataflow and returns k centers.
// The algorithmic parameters are taken from cfg (K, L, Rounds, Seed); the
// sampling is Bernoulli with the same counter-based per-point randomness as
// core.Init, so for equal parameters the candidate sets agree with the
// in-process implementation. Everything outside the mappers (first-center
// draw, sampling on the float64 D² cache, Step 8 reclustering the widened
// candidates in float64) is shared by both storage types; only the mapper
// bodies run in T.
func Init[T geom.Float](ds *geom.Set[T], cfg core.Config, cluster Config) (*geom.Matrix, Stats) {
	if cfg.K <= 0 {
		panic("mrkm: Config.K must be positive")
	}
	n := ds.N()
	if n == 0 {
		panic("mrkm: empty dataset")
	}
	spans := MakeSpans(n, cluster.Mappers)
	engine := cluster.engine()
	r := rng.New(cfg.Seed)
	stats := Stats{}
	ell, rounds := Defaults(cfg)

	// Step 1: first center, chosen by the driver.
	var first int
	if ds.Weight == nil {
		first = r.Intn(n)
	} else {
		first = r.WeightedIndex(ds.Weight)
	}
	centers := &geom.Mat[T]{Cols: ds.Dim()}
	centers.AppendRow(ds.Point(first))

	// d2 is the data-local distance cache (one entry per point, owned by the
	// mapper that owns the point's span).
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}

	// Job: update caches against centers[from:] and return the new φ. One
	// full pass over the data, like the cost computation described in §3.5
	// ("each mapper ... can compute φ_{X'}(C) and the reducer can simply add
	// these values").
	updateAndCost := func(from int) float64 {
		mapper := func(s Span, emit func(int, float64)) {
			emit(0, UpdateSpan(ds, d2, s.Lo, s.Hi, centers, from))
		}
		reducer := func(_ int, vs []float64, emit func(float64)) { emit(sum(vs)) }
		out, counters := mr.Run(spans, mapper, nil, reducer, engine)
		stats.MRRounds++
		stats.Counters.Add(counters)
		if len(out) == 0 {
			return 0
		}
		return out[0]
	}

	// Step 2: ψ (pure cost pass).
	phi := updateAndCost(0)
	stats.Psi = phi
	stats.PhiTrace = append(stats.PhiTrace, phi)

	// Steps 3–6: each round is a sampling job (reads the cache, needs the φ
	// the previous job produced) followed by an update+cost job against the
	// newly added centers — two full passes per round, which is exactly what
	// a Hadoop driver threading φ between jobs does.
	for round := 0; round < rounds && phi > 0; round++ {
		from := centers.Rows
		cand := sampleOnly(spans, d2, phi, ell, cfg.Seed, round, engine, &stats)
		for _, i := range cand {
			centers.AppendRow(ds.Point(i))
		}
		phi = updateAndCost(from)
		stats.PhiTrace = append(stats.PhiTrace, phi)
	}
	stats.Candidates = centers.Rows

	// Step 7: weighting job; per-span weight vectors are reduced in span
	// order, matching the coordinator's fixed shard-order reduction.
	weights := weightJob(spans, ds, centers, engine, &stats)

	// Step 8: sequential reclustering on the driver.
	cds := WeightedCandidates(geom.Widen(centers), weights)
	final := seed.KMeansPP(cds, cfg.K, r, 1)

	// Final cost pass (also an MR job, like the evaluation step in §3.5).
	stats.SeedCost = costJob(spans, ds, geom.Convert[T](final), engine, &stats)
	return final, stats
}

// sampleOnly is the Bernoulli selection over cached distances. It reads the
// caches but performs no distance work (the cache is current); it is merged
// with the update pass in runRound when possible, but the very first sampling
// of a round needs φ from the previous pass, hence this dedicated job.
func sampleOnly(spans []Span, d2 []float64, phi, ell float64, seedVal uint64, round int, engine mr.Config, stats *Stats) []int {
	mapper := func(s Span, emit func(int, []int)) {
		var sel []int
		for i := s.Lo; i < s.Hi; i++ {
			if d2[i] <= 0 {
				continue
			}
			p := ell * d2[i] / phi
			if p >= 1 || rng.PointRand(seedVal, round, i) < p {
				sel = append(sel, i)
			}
		}
		emit(0, sel)
	}
	reducer := func(_ int, vs [][]int, emit func([]int)) {
		var all []int
		for _, v := range vs {
			all = append(all, v...)
		}
		emit(all)
	}
	out, counters := mr.Run(spans, mapper, nil, reducer, engine)
	stats.MRRounds++
	stats.Counters.Add(counters)
	if len(out) == 0 {
		return nil
	}
	return out[0]
}

// weightJob is Step 7: one WeightSpan per span, summed per candidate in
// span order.
func weightJob[T geom.Float](spans []Span, ds *geom.Set[T], centers *geom.Mat[T], engine mr.Config, stats *Stats) []float64 {
	mapper := func(s Span, emit func(int, []float64)) {
		emit(0, WeightSpan(ds, s.Lo, s.Hi, centers))
	}
	k := centers.Rows
	reducer := func(_ int, vs [][]float64, emit func([]float64)) {
		out := make([]float64, k)
		for _, v := range vs {
			for c := range out {
				out[c] += v[c]
			}
		}
		emit(out)
	}
	out, counters := mr.Run(spans, mapper, nil, reducer, engine)
	stats.MRRounds++
	stats.Counters.Add(counters)
	if len(out) == 0 {
		return make([]float64, k)
	}
	return out[0]
}

// costJob computes φ_X(C) as one MR job.
func costJob[T geom.Float](spans []Span, ds *geom.Set[T], centers *geom.Mat[T], engine mr.Config, stats *Stats) float64 {
	mapper := func(s Span, emit func(int, float64)) {
		emit(0, CostSpan(ds, s.Lo, s.Hi, centers))
	}
	reducer := func(_ int, vs []float64, emit func(float64)) { emit(sum(vs)) }
	out, counters := mr.Run(spans, mapper, nil, reducer, engine)
	stats.MRRounds++
	stats.Counters.Add(counters)
	if len(out) == 0 {
		return 0
	}
	return out[0]
}

// WeightedCandidates packages the Step 7 output as the weighted dataset that
// Step 8 reclusters: candidates with positive weight, in center order. The
// networked realization (internal/distkm) shares it so both drivers hand
// k-means++ the exact same input.
func WeightedCandidates(centers *geom.Matrix, weights []float64) *geom.Dataset {
	keep := make([]int, 0, centers.Rows)
	for i, w := range weights {
		if w > 0 {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		keep = append(keep, 0)
		weights[0] = 1
	}
	x := geom.NewMatrix(len(keep), centers.Cols)
	w := make([]float64, len(keep))
	for j, i := range keep {
		copy(x.Row(j), centers.Row(i))
		w[j] = weights[i]
	}
	return &geom.Dataset{X: x, Weight: w}
}

// Lloyd runs Lloyd's iteration where each iteration is one MapReduce job
// (the standard parallel k-means the paper cites from Mahout). Centers are
// mastered in float64 and narrowed to a T snapshot the mappers scan; the
// per-center Σw·x ⧺ Σw reduction and the center update itself stay float64,
// folded in span order. Empty clusters keep their previous position, as in
// the textbook MR implementation. The final assignment and cost come from a
// dedicated span job so they reduce in the same fixed order a distkm
// coordinator uses.
func Lloyd[T geom.Float](ds *geom.Set[T], init *geom.Matrix, maxIter int, cluster Config) (lloyd.Result, Stats) {
	if maxIter <= 0 {
		maxIter = 20 // the paper bounds parallel Lloyd at 20 iterations (§4.2)
	}
	n := ds.N()
	spans := MakeSpans(n, cluster.Mappers)
	engine := cluster.engine()
	centers := init.Clone()
	k, d := centers.Rows, centers.Cols
	snap := geom.NewMat[T](k, d)
	narrow := func() {
		for c := 0; c < k; c++ {
			geom.ConvertRow(snap.Row(c), centers.Row(c))
		}
	}
	stats := Stats{}
	res := lloyd.Result{Centers: centers}

	type part struct {
		Sums []float64 // k rows of Σw·x ⧺ Σw, k×(d+1), span-local
		Phi  float64
	}
	for it := 0; it < maxIter; it++ {
		narrow()
		mapper := func(s Span, emit func(int, part)) {
			sums, phi := LloydSpan(ds, s.Lo, s.Hi, snap)
			emit(0, part{Sums: sums.Data, Phi: phi})
		}
		reducer := func(_ int, vs []part, emit func(part)) {
			total := make([]float64, k*(d+1))
			var phi float64
			for _, v := range vs {
				for j := range total {
					total[j] += v.Sums[j]
				}
				phi += v.Phi
			}
			emit(part{Sums: total, Phi: phi})
		}
		out, counters := mr.Run(spans, mapper, nil, reducer, engine)
		stats.MRRounds++
		stats.Counters.Add(counters)
		if len(out) == 0 {
			break
		}
		total, phi := out[0].Sums, out[0].Phi

		maxMove := 0.0
		for c := 0; c < k; c++ {
			row := total[c*(d+1) : (c+1)*(d+1)]
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
		res.Iters = it + 1
		res.Cost = phi
		res.CostTrace = append(res.CostTrace, phi)
		if maxMove == 0 {
			res.Converged = true
			break
		}
	}

	// res.Cost above is w.r.t. the previous centers; report the final
	// assignment and cost against the final centers, reduced in span order.
	// This report pass is not an iteration, so it is not counted as one of
	// the run's MR jobs.
	narrow()
	assign := make([]int32, n)
	mapper := func(s Span, emit func(int, float64)) {
		emit(0, AssignSpan(ds, s.Lo, s.Hi, snap, assign))
	}
	reducer := func(_ int, vs []float64, emit func(float64)) { emit(sum(vs)) }
	out, _ := mr.Run(spans, mapper, nil, reducer, engine)
	res.Assign = assign
	if len(out) > 0 {
		res.Cost = out[0]
	}
	stats.SeedCost = res.Cost
	return res, stats
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
