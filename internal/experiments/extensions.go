package experiments

import (
	"fmt"
	"math"

	"kmeansll/internal/core"
	"kmeansll/internal/coreset"
	"kmeansll/internal/data"
	"kmeansll/internal/eval"
	"kmeansll/internal/geom"
	"kmeansll/internal/kdtree"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
	"kmeansll/internal/stream"
)

// AblationStreaming compares the three "small intermediate set" pipelines
// the paper's related work puts side by side: k-means|| (r·ℓ candidates,
// r+2 passes), Partition/Ailon et al. (Θ(√(nk)·log k) candidates, 1 pass),
// and StreamKM++/Ackermann et al. (size-m coreset, 1 pass) — all finished
// with weighted k-means++ (+ Lloyd) and evaluated on the full data.
func AblationStreaming(opt Options) []eval.Table {
	n := 20000
	k := 50
	if opt.Quick {
		n = 6000
		k = 20
	}
	trials := opt.trials(5)
	model := eval.DefaultCluster()
	ds := data.KDDLike(data.KDDLikeConfig{N: n, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_streaming",
		Title:   fmt.Sprintf("Small-intermediate-set pipelines (KDDLike n=%d, k=%d, %d runs)", n, k, trials),
		Headers: []string{"pipeline", "median intermediate", "median final cost"},
		Notes: []string{"all pipelines recluster their intermediate set with weighted k-means++",
			"final cost is evaluated on the full dataset after Lloyd (max 20 iters)"},
	}

	type pipeline struct {
		name string
		run  func(trial uint64) (inter int, finalCost float64)
	}
	pipelines := []pipeline{
		{"k-means|| l=2k,r=5", func(trial uint64) (int, float64) {
			centers, stats := core.Init(ds, core.Config{
				K: k, L: 2 * float64(k), Rounds: 5,
				Parallelism: opt.Parallelism, Seed: trial,
			})
			res, _, _ := runLloyd(ds, centers, parMaxIter, opt, model)
			return stats.Candidates, res.Cost
		}},
		{"Partition", func(trial uint64) (int, float64) {
			centers, stats := stream.Partition(ds, stream.Config{
				K: k, Parallelism: opt.Parallelism, Seed: trial,
			})
			res, _, _ := runLloyd(ds, centers, parMaxIter, opt, model)
			return stats.Intermediate, res.Cost
		}},
		{"StreamKM++ m=20k", func(trial uint64) (int, float64) {
			s := coreset.NewStream(20*k, ds.Dim(), trial)
			for i := 0; i < ds.N(); i++ {
				s.Add(ds.Point(i))
			}
			cs := s.Coreset()
			init := seed.KMeansPP(cs, k, rng.New(trial+999), opt.Parallelism)
			csRes := lloyd.Run(cs, init, lloyd.Config{MaxIter: 100, Parallelism: opt.Parallelism})
			res, _, _ := runLloyd(ds, csRes.Centers, parMaxIter, opt, model)
			return cs.N(), res.Cost
		}},
	}
	for _, p := range pipelines {
		var inters, finals []float64
		for t := 0; t < trials; t++ {
			inter, final := p.run(opt.Seed + uint64(t))
			inters = append(inters, float64(inter))
			finals = append(finals, final)
		}
		tab.Rows = append(tab.Rows, []string{
			p.name,
			fmt.Sprintf("%.0f", eval.Median(inters)),
			eval.FmtSci(eval.Median(finals)),
		})
	}
	return []eval.Table{tab}
}

// AblationSeeding compares the sequential seeding family at equal k: vanilla
// k-means++, greedy k-means++ (scikit-learn's default), and k-means|| —
// seed quality vs number of passes over the data.
func AblationSeeding(opt Options) []eval.Table {
	n := 10000
	k := 50
	if opt.Quick {
		n = 3000
		k = 20
	}
	trials := opt.trials(11)
	model := eval.DefaultCluster()
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: n, D: 15, K: k, R: 10, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_seeding",
		Title:   fmt.Sprintf("Seeding family (GaussMixture R=10, n=%d, k=%d, %d runs)", n, k, trials),
		Headers: []string{"seeder", "passes", "median seed cost", "median final cost"},
	}
	type seeder struct {
		name   string
		passes string
		run    func(trial uint64) (seedCost, finalCost float64)
	}
	seeders := []seeder{
		{"k-means++", fmt.Sprint(k), func(trial uint64) (float64, float64) {
			c := seed.KMeansPP(ds, k, rng.New(trial), opt.Parallelism)
			sc := lloyd.Cost(ds, c, opt.Parallelism)
			res, _, _ := runLloyd(ds, c, seqMaxIter, opt, model)
			return sc, res.Cost
		}},
		{"greedy k-means++ t=4", fmt.Sprint(4 * k), func(trial uint64) (float64, float64) {
			c := seed.GreedyKMeansPP(ds, k, 4, rng.New(trial), opt.Parallelism)
			sc := lloyd.Cost(ds, c, opt.Parallelism)
			res, _, _ := runLloyd(ds, c, seqMaxIter, opt, model)
			return sc, res.Cost
		}},
		{"k-means|| l=2k,r=5", "7", func(trial uint64) (float64, float64) {
			c, stats := core.Init(ds, core.Config{K: k, L: 2 * float64(k), Rounds: 5,
				Parallelism: opt.Parallelism, Seed: trial})
			res, _, _ := runLloyd(ds, c, seqMaxIter, opt, model)
			return stats.SeedCost, res.Cost
		}},
	}
	for _, s := range seeders {
		var seeds, finals []float64
		for t := 0; t < trials; t++ {
			sc, fc := s.run(opt.Seed + uint64(t))
			seeds = append(seeds, sc)
			finals = append(finals, fc)
		}
		tab.Rows = append(tab.Rows, []string{
			s.name, s.passes,
			eval.FmtSci(eval.Median(seeds)),
			eval.FmtSci(eval.Median(finals)),
		})
	}
	return []eval.Table{tab}
}

// AblationKDTree adds the Kanungo et al. filtering algorithm to the Lloyd
// kernel comparison: identical fixed point, measured distance evaluations.
func AblationKDTree(opt Options) []eval.Table {
	n := 20000
	k := 50
	if opt.Quick {
		n = 5000
		k = 20
	}
	trials := opt.trials(5)
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: n, D: 8, K: k, R: 20, Seed: 42})
	tab := eval.Table{
		ID:      "ablation_kdtree",
		Title:   fmt.Sprintf("kd-tree filtering vs naive Lloyd (GaussMixture, n=%d, d=8, k=%d, %d runs)", n, k, trials),
		Headers: []string{"kernel", "median final cost", "median dist evals / iter", "brute force / iter"},
		Notes:   []string{"filtering (Kanungo et al. [23]) is exact: costs must match naive Lloyd"},
	}
	brute := float64(n * k)
	var naiveCosts, treeCosts, evalsPerIter []float64
	for t := 0; t < trials; t++ {
		init := seed.KMeansPP(ds, k, rng.New(opt.Seed+uint64(t)), opt.Parallelism)
		naive := lloyd.Run(ds, init, lloyd.Config{MaxIter: 50, Parallelism: opt.Parallelism})
		tree := kdtree.Build(ds, 16)
		_, cost, iters, evals := tree.Run(init, 50)
		naiveCosts = append(naiveCosts, naive.Cost)
		treeCosts = append(treeCosts, cost)
		evalsPerIter = append(evalsPerIter, float64(evals)/float64(iters))
	}
	tab.Rows = append(tab.Rows,
		[]string{"naive", eval.FmtSci(eval.Median(naiveCosts)), eval.FmtSci(brute), eval.FmtSci(brute)},
		[]string{"kd-tree filter", eval.FmtSci(eval.Median(treeCosts)),
			eval.FmtSci(eval.Median(evalsPerIter)), eval.FmtSci(brute)})
	return []eval.Table{tab}
}

// AblationTrimmed shows the §7 extension: trimmed (outlier-robust) k-means
// seeded by k-means||, on data with injected far outliers.
func AblationTrimmed(opt Options) []eval.Table {
	n := 10000
	k := 20
	outFrac := 0.01
	if opt.Quick {
		n = 3000
	}
	trials := opt.trials(5)
	ds, truth := data.GaussMixture(data.GaussMixtureConfig{N: n, D: 10, K: k, R: 30, Seed: 42})
	// Inject 1% far outliers, scattered (random sign per coordinate) so each
	// is isolated rather than forming its own cluster.
	r := rng.New(77)
	nOut := int(outFrac * float64(n))
	for i := 0; i < nOut; i++ {
		p := make([]float64, 10)
		for j := range p {
			p[j] = 2000 * (1 + r.Float64())
			if r.Bernoulli(0.5) {
				p[j] = -p[j]
			}
		}
		ds.X.AppendRow(p)
	}
	tab := eval.Table{
		ID:      "ablation_trimmed",
		Title:   fmt.Sprintf("Seeding x trimming grid on contaminated data (%d points + %d outliers, k=%d, %d runs)", n, nOut, k, trials),
		Headers: []string{"seeding", "lloyd", "median centers on outliers", "median inlier cost"},
		Notes: []string{"centers on outliers = fitted centers whose nearest true mixture center is > 500 away",
			"inlier cost = clustering cost over the clean points only",
			"D^2 seeding deliberately grabs far points, so it wastes centers on outliers that trimming alone cannot reclaim;",
			"with uniform seeding, trimming prevents outliers from dragging centroids"},
	}
	inlierIdx := make([]int, n)
	for i := range inlierIdx {
		inlierIdx[i] = i
	}
	clean := ds.Subset(inlierIdx)
	wastedCount := func(centers *geom.Matrix) float64 {
		wasted := 0
		for c := 0; c < centers.Rows; c++ {
			if _, d2 := geom.Nearest(centers.Row(c), truth); math.Sqrt(d2) > 500 {
				wasted++
			}
		}
		return float64(wasted)
	}
	type variant struct {
		seeding, refine string
		run             func(trial uint64) *geom.Matrix
	}
	seedOf := func(name string, trial uint64) *geom.Matrix {
		if name == "k-means||" {
			init, _ := core.Init(ds, core.Config{K: k, Seed: trial, Parallelism: opt.Parallelism})
			return init
		}
		return seed.Random(ds, k, rng.New(trial))
	}
	variants := []variant{}
	for _, s := range []string{"random", "k-means||"} {
		for _, refine := range []string{"plain", "trimmed"} {
			s, refine := s, refine
			variants = append(variants, variant{s, refine, func(trial uint64) *geom.Matrix {
				init := seedOf(s, trial)
				if refine == "trimmed" {
					trim := lloyd.Opt{Kind: lloyd.OptTrimmed, TrimFraction: 2 * outFrac}
					res := lloyd.Refine(trim, ds, init, lloyd.Config{MaxIter: 100, Parallelism: opt.Parallelism}, 0)
					return res.Centers
				}
				res := lloyd.Run(ds, init, lloyd.Config{MaxIter: 100, Parallelism: opt.Parallelism})
				return res.Centers
			}})
		}
	}
	for _, v := range variants {
		var wasted, costs []float64
		for t := 0; t < trials; t++ {
			centers := v.run(opt.Seed + uint64(t))
			wasted = append(wasted, wastedCount(centers))
			costs = append(costs, lloyd.Cost(clean, centers, opt.Parallelism))
		}
		tab.Rows = append(tab.Rows, []string{
			v.seeding, v.refine,
			fmt.Sprintf("%.0f", eval.Median(wasted)),
			eval.FmtSci(eval.Median(costs)),
		})
	}
	return []eval.Table{tab}
}
