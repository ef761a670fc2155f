// Package mrkm names the MapReduce realization of §3.5 of the paper: every
// pass over the data is one job whose mappers run over their input splits
// in parallel against the broadcast (small) center set, and one reducer
// adds the partials in split order. In one process such a job is one
// geom.ParallelFor over Mappers chunks, which is exactly the in-process
// pass backend, so both entry points are facades:
//
//   - Init is core.Init at Parallelism = Mappers: a fold job per round, a
//     sampling job per round, Step 7 as one weighting job and the seed cost
//     as one cost job; Step 8 (reclustering) runs on "a single machine",
//     the driver, because the candidate set is tiny.
//   - Lloyd is lloyd.Run at Parallelism = Mappers: one job per iteration
//     reducing Σw·x ⧺ Σw per center (lloyd.StepSpan), a reseed job per
//     empty cluster and a final assignment job, all through lloyd.Drive.
//
// The networked coordinator (internal/distkm) shards with the same
// partition and runs the same drivers, so its fits agree with Init and
// Lloyd bit for bit in both precisions.
package mrkm

import (
	"fmt"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

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
// (the standard parallel k-means the paper cites from Mahout): lloyd.Run
// with one chunk per mapper, so the result is lloyd.Run's at Parallelism =
// Mappers, bit for bit, in either storage precision. maxIter ≤ 0 means
// lloyd.DefaultMaxIter. The reseed and final assignment passes are not
// iterations and are not counted as the run's MR jobs.
func Lloyd[T geom.Float](ds *geom.Set[T], init *geom.Matrix, maxIter int, cluster Config) (lloyd.Result, Stats) {
	res := lloyd.Run(ds, init, lloyd.Config{MaxIter: maxIter, Parallelism: cluster.Mappers})
	return res, Stats{MRRounds: res.Iters}
}
