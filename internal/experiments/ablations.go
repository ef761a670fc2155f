package experiments

import (
	"fmt"
	"strconv"

	"kmeansll/internal/core"
	"kmeansll/internal/data"
	"kmeansll/internal/eval"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/mrkm"
)

// AblationSampling compares the two sampling modes of k-means|| (independent
// Bernoulli as analyzed vs exact-ℓ joint draws as in Figure 5.1) at equal
// expected sample budgets — the design choice §5.3 of the paper calls out.
func AblationSampling(opt Options) []eval.Table {
	n := 10000
	if opt.Quick {
		n = 3000
	}
	trials := opt.trials(11)
	model := eval.DefaultCluster()
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: n, D: 15, K: 50, R: 10, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_sampling",
		Title:   fmt.Sprintf("Sampling mode ablation (GaussMixture R=10, k=50, %d runs)", trials),
		Headers: []string{"mode", "l/k", "rounds", "median candidates", "median seed", "median final"},
	}
	for _, mode := range []core.SampleMode{core.Bernoulli, core.ExactL} {
		for _, lk := range []float64{0.5, 2} {
			var cands, seeds, finals []float64
			for t := 0; t < trials; t++ {
				centers, stats := core.Init(ds, core.Config{
					K: 50, L: lk * 50, Rounds: 5, Mode: mode,
					Parallelism: opt.Parallelism, Seed: opt.Seed + uint64(t),
				})
				res, _, _ := runLloyd(ds, centers, seqMaxIter, opt, model)
				cands = append(cands, float64(stats.Candidates))
				seeds = append(seeds, stats.SeedCost)
				finals = append(finals, res.Cost)
			}
			tab.Rows = append(tab.Rows, []string{
				mode.String(), fmt.Sprint(lk), "5",
				fmt.Sprintf("%.0f", eval.Median(cands)),
				eval.FmtSci(eval.Median(seeds)),
				eval.FmtSci(eval.Median(finals)),
			})
		}
	}
	return []eval.Table{tab}
}

// AblationRecluster compares Step 8 choices: the paper's weighted k-means++,
// a Lloyd-refined variant, and weight-proportional random selection.
func AblationRecluster(opt Options) []eval.Table {
	n := 10000
	if opt.Quick {
		n = 3000
	}
	trials := opt.trials(11)
	model := eval.DefaultCluster()
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: n, D: 15, K: 50, R: 10, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_recluster",
		Title:   fmt.Sprintf("Step 8 reclustering ablation (GaussMixture R=10, k=50, %d runs)", trials),
		Headers: []string{"recluster", "median seed", "median final"},
	}
	for _, m := range []core.ReclusterMethod{core.ReclusterKMeansPP, core.ReclusterKMeansPPLloyd, core.ReclusterRandom} {
		var seeds, finals []float64
		for t := 0; t < trials; t++ {
			centers, stats := core.Init(ds, core.Config{
				K: 50, L: 100, Rounds: 5, Recluster: m,
				Parallelism: opt.Parallelism, Seed: opt.Seed + uint64(t),
			})
			res, _, _ := runLloyd(ds, centers, seqMaxIter, opt, model)
			seeds = append(seeds, stats.SeedCost)
			finals = append(finals, res.Cost)
		}
		tab.Rows = append(tab.Rows, []string{
			m.String(), eval.FmtSci(eval.Median(seeds)), eval.FmtSci(eval.Median(finals)),
		})
	}
	return []eval.Table{tab}
}

// assignShape is one AblationAssign workload: GaussMixture(n, d, k, r) at
// seed 42, or the KDDLike sample of n points (d = 42) when kdd is set.
type assignShape struct {
	n, d, k int
	r       float64
	kdd     bool
}

// assignShapes are the workloads the kernel rule in docs/kernels.md was
// measured on: the paper's GaussMixture at the three R of Table 1, wide
// and narrow points, k up to 500, and a KDDLike sample.
var assignShapes = []assignShape{
	{n: 10000, d: 16, k: 20, r: 1},
	{n: 10000, d: 15, k: 50, r: 1},
	{n: 10000, d: 15, k: 50, r: 10},
	{n: 10000, d: 15, k: 50, r: 100},
	{n: 20000, d: 58, k: 32, r: 1},
	{n: 10000, d: 4, k: 256, r: 1},
	{n: 10000, d: 58, k: 256, r: 1},
	{n: 50000, d: 8, k: 100, r: 1},
	{n: 30000, d: 42, k: 500, kdd: true},
}

// AblationAssign compares the exact Lloyd assignment kernels (naive scan vs
// Elkan vs Hamerly bounds) on each of assignShapes: whole runs to
// convergence from one k-means|| seed per shape, timed in alternation.
// Every kernel must reach naive's cost bits and iteration count, so the
// rows differ only in wall time. Quick shrinks n by 40 and k by 16.
func AblationAssign(opt Options) []eval.Table {
	methods := []lloyd.Method{lloyd.Naive, lloyd.Elkan, lloyd.Hamerly}
	tab := eval.Table{
		ID:      "ablation_assign",
		Title:   "Lloyd assignment kernel ablation (runs to convergence from a k-means|| seed)",
		Headers: []string{"shape", "kernel", "median wall ms", "iters", "final cost"},
		Notes: []string{
			"every kernel is exact Lloyd from the same seed: iters and final cost (all digits) must equal naive's",
			fmt.Sprintf("float64 nearest-center tile: panel kernel %v (docs/kernels.md has the three-rung table this experiment measures)", geom.PanelKernel[float64]()),
		},
	}
	for _, s := range assignShapes {
		trials := opt.trials(5)
		if s.k >= 256 || s.n >= 30000 {
			trials = opt.trials(3)
		}
		if opt.Quick {
			s.n, s.k = s.n/40, max(s.k/16, 2)
		}
		var ds *geom.Dataset
		name := fmt.Sprintf("GaussMixture %dx%d R=%g k=%d", s.n, s.d, s.r, s.k)
		if s.kdd {
			ds = data.KDDLike(data.KDDLikeConfig{N: s.n, Seed: 42})
			name = fmt.Sprintf("KDDLike %dx%d k=%d", s.n, ds.Dim(), s.k)
		} else {
			ds, _ = data.GaussMixture(data.GaussMixtureConfig{N: s.n, D: s.d, K: s.k, R: s.r, Seed: 42})
		}
		init, _ := core.Init(ds, core.Config{K: s.k, Parallelism: opt.Parallelism, Seed: opt.Seed})
		res := make([]lloyd.Result, len(methods))
		walls := make([][]float64, len(methods))
		for t := 0; t < trials; t++ {
			for mi, m := range methods {
				wall := eval.Timed(func() {
					res[mi] = lloyd.Refine(lloyd.Opt{Kernel: m}, ds, init, lloyd.Config{
						MaxIter: seqMaxIter, Parallelism: opt.Parallelism,
					}, 0).Result
				})
				walls[mi] = append(walls[mi], float64(wall.Microseconds())/1000)
			}
		}
		for mi, m := range methods {
			tab.Rows = append(tab.Rows, []string{
				name, m.String(), fmt.Sprintf("%.1f", eval.Median(walls[mi])),
				fmt.Sprint(res[mi].Iters), strconv.FormatFloat(res[mi].Cost, 'g', -1, 64),
			})
		}
	}
	return []eval.Table{tab}
}

// AblationParallelism measures k-means|| initialization wall time as the
// worker count grows — the linear-scaling property §4.2.1 contrasts with
// Partition's m-machine cap.
func AblationParallelism(opt Options) []eval.Table {
	n := 50000
	k := 100
	if opt.Quick {
		n = 10000
		k = 50
	}
	trials := opt.trials(3)
	model := eval.DefaultCluster()
	ds := data.KDDLike(data.KDDLikeConfig{N: n, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_parallelism",
		Title:   fmt.Sprintf("k-means|| init wall time vs workers (KDDLike n=%d, k=%d)", n, k),
		Headers: []string{"workers", "median wall ms", "median seed cost"},
		Notes:   []string{"results are bit-identical across worker counts; only time changes"},
	}
	for _, w := range []int{1, 2, 4, 8} {
		var walls, seeds []float64
		for t := 0; t < trials; t++ {
			o := opt
			o.Parallelism = w
			out := kmllMethod("", 2, 5, core.Bernoulli).init(ds, k, opt.Seed+uint64(t), o, model)
			walls = append(walls, float64(out.wall.Milliseconds()))
			seeds = append(seeds, out.seedCost)
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprint(w),
			fmt.Sprintf("%.0f", eval.Median(walls)),
			eval.FmtSci(eval.Median(seeds)),
		})
	}
	return []eval.Table{tab}
}

// AblationMapReduce validates the MapReduce realization against the
// in-process implementation: identical candidate selection, matching costs,
// and the job/pass accounting of §3.5.
func AblationMapReduce(opt Options) []eval.Table {
	n := 20000
	k := 50
	if opt.Quick {
		n = 5000
	}
	trials := opt.trials(5)
	ds := data.KDDLike(data.KDDLikeConfig{N: n, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_mapreduce",
		Title:   fmt.Sprintf("MapReduce realization vs in-process (KDDLike n=%d, k=%d, %d runs)", n, k, trials),
		Headers: []string{"impl", "median candidates", "median seed cost", "MR jobs"},
		Notes:   []string{"same seed => identical Bernoulli candidate sets in both implementations"},
	}
	var cCands, cSeeds, mCands, mSeeds, jobs []float64
	for t := 0; t < trials; t++ {
		cfg := core.Config{K: k, L: 2 * float64(k), Rounds: 5, Seed: opt.Seed + uint64(t),
			Parallelism: opt.Parallelism}
		_, cs := core.Init(ds, cfg)
		_, ms := mrkm.Init(ds, cfg, mrkm.Config{Mappers: opt.Parallelism})
		cCands = append(cCands, float64(cs.Candidates))
		cSeeds = append(cSeeds, cs.SeedCost)
		mCands = append(mCands, float64(ms.Candidates))
		mSeeds = append(mSeeds, ms.SeedCost)
		jobs = append(jobs, float64(ms.MRRounds))
	}
	tab.Rows = append(tab.Rows,
		[]string{"in-process", fmt.Sprintf("%.0f", eval.Median(cCands)), eval.FmtSci(eval.Median(cSeeds)), "-"},
		[]string{"mapreduce", fmt.Sprintf("%.0f", eval.Median(mCands)), eval.FmtSci(eval.Median(mSeeds)),
			fmt.Sprintf("%.0f", eval.Median(jobs))})
	return []eval.Table{tab}
}
