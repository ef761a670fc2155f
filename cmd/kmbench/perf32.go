package main

import (
	"runtime"
	"testing"

	"kmeansll"
	"kmeansll/internal/core"
	"kmeansll/internal/distkm"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// The float32 perf suite (BENCH_f32.json) records the single-precision
// engine's win over the double-precision blocked engine at the acceptance
// scale, 10⁵×32 with k=32: Init (k-means||), one Lloyd iteration under each
// assignment method (naive, Elkan, Hamerly), a mini-batch refinement, one
// distributed Lloyd iteration over a loopback cluster, and steady-state
// PredictBatch — each measured three ways in one process: float64 blocked
// (the committed reference), float32 with the pure-Go kernels
// (geom.SetF32Tier(geom.F32TierPureGo)), and float32 with the assembly dot kernels where
// the platform has them. The speedup_* ratios divide the float64 ns/op by
// the best float32 variant's; the bench gate holds every ratio whose
// committed baseline met the bar to the ≥1.3× floor from docs/kernels.md,
// so "float32 is the fast path" stays an enforced property. Ratios are
// measured within one run, so they are machine-independent like the
// blocked-vs-naive ones.

const (
	f32K     = 32
	f32Batch = 512
	// f32MBSteps sizes the mini-batch row: 50 batch steps of f32Batch points
	// plus the final exact assignment pass over the full dataset.
	f32MBSteps = 50
	// distWorkers is the loopback cluster size of the distributed row.
	distWorkers = 4
)

// runF32Suite measures the three hot paths at 10⁵×32 under float64-blocked,
// float32-Go and (when available) float32-asm kernels.
func runF32Suite() (perfFile, error) {
	f := perfFile{
		Suite: "f32", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		Workload: workload{N: loadN, Dim: loadDim, K: f32K, Batch: f32Batch},
		Speedups: map[string]float64{},
	}
	x := perfData(loadN, loadDim, f32K, 11)
	ds := geom.NewDataset(x)
	ds32 := geom.ConvertSet[float32](ds)

	// Shared starting centers so the Lloyd-iteration rows measure one
	// assignment+update pass over identical state in every variant.
	initCenters := seed.Random(ds, f32K, rng.New(12))

	// Serving model: converged centers queried with fresh points.
	res := lloyd.Run(ds, initCenters, lloyd.Config{MaxIter: 20, Parallelism: 0})
	centerRows := make([][]float64, res.Centers.Rows)
	for c := range centerRows {
		centerRows[c] = res.Centers.Row(c)
	}
	queriesM := perfData(f32Batch, loadDim, f32K, 13)
	queries := make([][]float64, f32Batch)
	for i := range queries {
		queries[i] = queriesM.Row(i)
	}
	out := make([]int, f32Batch)

	defer geom.SetKernel(geom.KernelAuto)
	defer geom.SetF32Tier(geom.ActiveF32Tier())

	env := &f32Env{ds: ds, initCenters: initCenters, centerRows: centerRows, queries: queries, out: out}
	byVariant := map[string]map[string]float64{}
	record := func(variant string, results []perfResult) {
		f.Results = append(f.Results, results...)
		byVariant[variant] = map[string]float64{}
		for i, metric := range f32Metrics {
			byVariant[variant][metric] = results[i].NsPerOp
		}
	}

	geom.SetKernel(geom.KernelBlocked)
	record("f64", benchVariant(env, ds, "f64", kmeansll.Float64))

	geom.SetF32Tier(geom.F32TierPureGo)
	record("f32", benchVariant(env, ds32, "f32", kmeansll.Float32))

	best := byVariant["f32"]
	if tiers := geom.F32Tiers(); len(tiers) > 1 {
		geom.SetF32Tier(tiers[len(tiers)-1])
		record("f32asm", benchVariant(env, ds32, "f32asm", kmeansll.Float32))
		best = byVariant["f32asm"]
	}

	for _, metric := range f32Metrics {
		f.Speedups[metric+"_f32"] = byVariant["f64"][metric] / best[metric]
	}
	return f, nil
}

// f32Metrics names benchVariant's rows, in order, as the speedup keys.
var f32Metrics = []string{
	"init", "lloyd_iter", "lloyd_elkan", "lloyd_hamerly",
	"minibatch", "dist_lloyd_iter", "predict_batch",
}

// f32Env is the state every variant of the float32 suite shares.
type f32Env struct {
	ds          *geom.Dataset // float64 points; distributed shards narrow it
	initCenters *geom.Matrix
	centerRows  [][]float64
	queries     [][]float64
	out         []int
}

// benchVariant measures every row of the suite over points stored as T,
// calling the same entry points for every variant; the rows come back in
// f32Metrics order.
func benchVariant[T geom.Float](env *f32Env, ds *geom.Set[T], variant string, prec kmeansll.Precision) []perfResult {
	initCenters := env.initCenters

	// lloydIter measures one refinement pass under the given assignment
	// method — for naive that is lloyd.Step, the pass each iteration runs;
	// for Elkan/Hamerly it is a one-iteration run, whose bound-building
	// first assignment is the distance-dominated part the float32 kernels
	// accelerate.
	lloydIter := func(method lloyd.Method) perfResult {
		return measure("LloydIter"+methodTag(method)+"/precision="+variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if method == lloyd.Naive {
					lloyd.Step(ds, initCenters, 1)
				} else {
					lloyd.Refine(lloyd.Opt{Kernel: method}, ds, initCenters, lloyd.Config{MaxIter: 1, Parallelism: 1}, 0)
				}
			}
		})
	}

	// distIter measures one distributed Lloyd iteration over a 4-worker
	// loopback cluster: the shard assignment/update RPCs plus the final
	// assignment pass, everything crossing the real net/rpc + gob wire. The
	// float32 variants install float32 shards (Coordinator.SetFloat32), so
	// this row is the serving-tier form of the f32 assignment path.
	distIter := func() perfResult {
		clients, closeAll := distkm.LoopbackCluster(distWorkers)
		coord, err := distkm.NewCoordinator(clients)
		if err != nil {
			panic(err)
		}
		coord.SetFloat32(prec == kmeansll.Float32)
		if err := coord.Distribute(env.ds); err != nil {
			panic(err)
		}
		res := measure("DistLloydIter/precision="+variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := coord.Lloyd(initCenters, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		coord.Close()
		closeAll()
		return res
	}

	initRes := measure("Init/precision="+variant, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Init(ds, core.Config{K: f32K, Parallelism: 1, Seed: uint64(i % perfRestart)})
		}
	})
	lloydRes := lloydIter(lloyd.Naive)
	elkanRes := lloydIter(lloyd.Elkan)
	hamerlyRes := lloydIter(lloyd.Hamerly)
	mbRes := measure("MiniBatch/precision="+variant, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lloyd.MiniBatch(ds, initCenters, lloyd.MiniBatchConfig{
				BatchSize: f32Batch, Iters: f32MBSteps,
				Seed: uint64(i % perfRestart), Parallelism: 1,
			})
		}
	})
	distRes := distIter()
	model, err := kmeansll.NewModel(env.centerRows)
	if err != nil {
		panic(err) // centerRows is well-formed by construction
	}
	model.SetPredictPrecision(prec)
	model.PredictBatch(env.queries[:1], 1) // warm the lazy center caches
	predRes := measure("PredictBatch/precision="+variant, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model.PredictBatchInto(env.queries, env.out, 1)
		}
	})
	return []perfResult{initRes, lloydRes, elkanRes, hamerlyRes, mbRes, distRes, predRes}
}

// methodTag renders the assignment method as a benchmark-name suffix ("" for
// the naive baseline, so the original row names stay stable).
func methodTag(m lloyd.Method) string {
	switch m {
	case lloyd.Elkan:
		return "Elkan"
	case lloyd.Hamerly:
		return "Hamerly"
	default:
		return ""
	}
}
