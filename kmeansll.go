// Package kmeansll is a scalable k-means clustering library for Go,
// implementing "Scalable K-Means++" (Bahmani, Moseley, Vattani, Kumar,
// Vassilvitskii; PVLDB 5(7), 2012).
//
// The package front door is Cluster, which seeds centers with the paper's
// k-means|| initialization (or one of the baselines) and refines them with
// the configured Optimizer — exact Lloyd iteration by default, or
// mini-batch, trimmed and spherical k-means; any seeding composes with any
// optimizer over any data source:
//
//	model, err := kmeansll.Cluster(points, kmeansll.Config{K: 20})
//	if err != nil { ... }
//	cluster := model.Predict(point)
//
//	fast, err := kmeansll.Cluster(points, kmeansll.Config{
//		K: 20, Optimizer: kmeansll.MiniBatch{BatchSize: 512, Iters: 200},
//	})
//
// k-means|| replaces the k sequential passes of k-means++ with ~5 passes
// that each sample O(k) candidate centers in parallel, then reclusters the
// candidates; it keeps k-means++'s quality guarantees (Theorem 1 of the
// paper) while being embarrassingly parallel. The lower-level packages under
// internal/ expose every building block — the initializers, exact
// accelerated Lloyd kernels, the Partition streaming baseline, the MapReduce
// and networked realizations of k-means|| and the paper's experiment
// harness — and are exercised by the benches in bench_test.go, one per
// table and figure of the paper.
//
// Beyond the library there is a serving layer: cmd/kmserved (built on
// internal/server) exposes fitted models over HTTP with a versioned model
// registry, batch prediction (Model.PredictBatch), async fit jobs, and an
// online ingest endpoint backed by StreamingClusterer. See the README for a
// curl walk-through.
//
// # Performance
//
// Every distance-heavy loop — k-means|| round updates (whose recorded
// nearest candidates make Step 7's weighting a histogram), Lloyd
// assignment, and batch prediction — runs on the blocked pairwise-
// distance engine in internal/geom: squared distances are expanded as
// ‖x‖² + ‖c‖² − 2⟨x,c⟩ with cached norms and computed tile-wise so center
// tiles stay cache-resident. Small workloads fall back to the early-exit
// scan; the kd-tree handles Predict batches over many low-dimensional
// centers (k ≥ 256, dim ≤ 4) where the scan would run no panel kernel, or
// where k is large enough that its pruning beats even the panel scan.
// PredictBatchInto plus the engine's pooled scratch make steady-state
// serving allocation-free, and TransformBatch fills whole distance blocks
// with the same kernels. The expansion trades a little absolute precision
// for speed; for data far from the origin see UseExactDistances.
// `make bench` regenerates BENCH_init.json and BENCH_predict.json, which
// track ns/op and allocs/op for initialization, one Lloyd iteration and
// batch prediction under both kernels.
package kmeansll

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/kdtree"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
	"kmeansll/internal/stream"
)

// InitMethod selects the center-seeding algorithm.
type InitMethod int

const (
	// KMeansParallel is k-means|| (the paper's Algorithm 2). Default.
	KMeansParallel InitMethod = iota
	// KMeansPlusPlus is the sequential k-means++ (Algorithm 1).
	KMeansPlusPlus
	// RandomInit picks k points uniformly at random.
	RandomInit
	// PartitionInit is the streaming baseline of Ailon et al. (§4.2.1).
	PartitionInit
)

func (m InitMethod) String() string {
	switch m {
	case KMeansParallel:
		return "kmeans||"
	case KMeansPlusPlus:
		return "kmeans++"
	case RandomInit:
		return "random"
	case PartitionInit:
		return "partition"
	default:
		return fmt.Sprintf("InitMethod(%d)", int(m))
	}
}

// Kernel selects the exact Lloyd assignment algorithm, as Lloyd{Kernel}.
// Every kernel reaches the same fixed point; they differ in time and
// memory. Measured on nine shapes (docs/kernels.md): NaiveKernel is the
// fastest on all nine on the AVX-512 panel rung, and on seven on the AVX2
// rung, where ElkanKernel leads at large d·k; on the Go tile (km_purego,
// arm64, amd64 without AVX2+FMA) the better of ElkanKernel and
// HamerlyKernel is the fastest on all nine.
type Kernel int

const (
	// NaiveKernel scans every center per point through the blocked engine.
	NaiveKernel Kernel = iota
	// ElkanKernel uses Elkan's triangle-inequality bounds (O(n·k) memory).
	ElkanKernel
	// HamerlyKernel uses Hamerly's single lower bound (O(n) memory).
	HamerlyKernel
)

func (k Kernel) String() string {
	switch k {
	case NaiveKernel:
		return "naive"
	case ElkanKernel:
		return "elkan"
	case HamerlyKernel:
		return "hamerly"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Config controls Cluster. The zero value of every field except K selects a
// sensible default.
type Config struct {
	// K is the number of clusters. Required, must be ≥ 1.
	K int
	// Init selects the seeding algorithm (default k-means||).
	Init InitMethod
	// Oversampling is the k-means|| factor ℓ expressed as a multiple of K
	// (ℓ = Oversampling·K). 0 means 2, the paper's recommended setting.
	Oversampling float64
	// Rounds is the number of k-means|| sampling rounds; 0 means automatic
	// (5, or more when Oversampling·Rounds would not reach K).
	Rounds int
	// MaxIter caps Lloyd's iteration; 0 means run until convergence.
	MaxIter int
	// Optimizer selects the refinement stage run after seeding: Lloyd
	// (default), MiniBatch, Trimmed or Spherical. Any Optimizer composes
	// with any Init and any data source; nil means Lloyd{}. Lloyd's Kernel
	// picks its assignment implementation.
	Optimizer Optimizer
	// Weights, when non-nil, gives each point a positive weight (must match
	// len(points)).
	Weights []float64
	// Parallelism bounds worker goroutines; 0 means all CPUs.
	Parallelism int
	// Seed makes the run deterministic: equal seeds, configs and
	// Parallelism return bit-identical models. Across Parallelism values the
	// seeding's coin flips are the same, so the candidates and seed centers
	// match unless a flip lands within rounding of its threshold; costs and
	// Lloyd centers differ in the last bits, because partials are summed
	// per chunk.
	Seed uint64
	// Precision selects the distance arithmetic: Float64 (default, the
	// bit-reproducible reference) or Float32 (the single-precision blocked
	// engine, tolerance-based — see the Precision type and docs/kernels.md).
	Precision Precision
}

// Model is a fitted clustering.
type Model struct {
	// Centers holds the k final cluster centers.
	Centers [][]float64
	// Assign[i] is the cluster index of input point i.
	Assign []int
	// Cost is the k-means cost Σᵢ wᵢ·d²(xᵢ, Centers) of the fit.
	Cost float64
	// SeedCost is the cost right after initialization, before Lloyd.
	SeedCost float64
	// Iters is the number of refinement iterations run.
	Iters int
	// Converged reports whether the refinement reached a fixed point before
	// MaxIter. Always false for MiniBatch, which runs a fixed step budget.
	Converged bool
	// Outliers holds the point indices the Trimmed optimizer excluded in
	// its final iteration, sorted ascending; nil for every other optimizer.
	Outliers []int
	// TrimmedCost is the Trimmed optimizer's final cost over the kept
	// points only (Cost stays the all-points cost); 0 otherwise.
	TrimmedCost float64
	// Cohesion is the Spherical optimizer's objective Σ wᵢ·cos(xᵢ, c) —
	// the quantity it maximizes, where Cost is only the derived Euclidean
	// view; 0 for every other optimizer.
	Cohesion float64

	dim int

	// centerIndex lazily caches a kd-tree over Centers for PredictBatch's
	// tree regime (predictTree). Built at most once, so a served
	// (immutable) model pays the build cost on its first batch there only.
	centerIndex struct {
		once sync.Once
		tree *kdtree.Tree
	}

	// linear64 and linear32 lazily cache the contiguous center matrix and
	// norms of the linear-scan regimes, one per precision: every batch
	// outside the tree regime, including large-k, low-dimensional ones
	// wherever a panel kernel runs. Like the kd-tree, each is built once,
	// so Centers must not be mutated after the first PredictBatch call.
	linear64 linearIndex[float64]
	linear32 linearIndex[float32]

	// precision selects PredictBatch's linear-scan arithmetic; see
	// SetPredictPrecision.
	precision Precision

	// precisionRequested/precisionEffective record what arithmetic the fit
	// was asked for and what it actually ran at; see PrecisionRequested and
	// PrecisionEffective.
	precisionRequested Precision
	precisionEffective Precision
}

// Cluster fits k centers to the given points. Points must be non-empty and
// rectangular; see Config for the knobs.
func Cluster(points [][]float64, cfg Config) (*Model, error) {
	if cfg.K < 1 {
		return nil, errors.New("kmeansll: Config.K must be ≥ 1")
	}
	if len(points) == 0 {
		return nil, errors.New("kmeansll: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("kmeansll: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeansll: point %d has %d dims, want %d", i, len(p), dim)
		}
	}
	if cfg.Weights != nil && len(cfg.Weights) != len(points) {
		return nil, fmt.Errorf("kmeansll: %d weights for %d points", len(cfg.Weights), len(points))
	}
	for i, w := range cfg.Weights {
		if !(w > 0) {
			return nil, fmt.Errorf("kmeansll: weight %d is %v, must be positive", i, w)
		}
	}

	ds := &geom.Dataset{X: geom.FromRows(points), Weight: cfg.Weights}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("kmeansll: %w", err)
	}
	return clusterDataset(ds, cfg)
}

// ClusterDataset is Cluster over an already-materialized dataset of either
// precision — the out-of-core entry point: an mmap-backed dataset opened
// from a .kmd file flows straight into the fit without ever being copied
// into [][]float64 rows. A float32 dataset fits in float32 (its precision
// implies Config.Precision); a float64 dataset with Config.Precision =
// Float32 is narrowed once. Config.Weights is ignored; weights come from
// the dataset. Intended for in-repo consumers (kmserved path-based fit
// jobs, the CLI tools) — external importers cannot construct a geom.Set
// and should use Cluster.
func ClusterDataset[T geom.Float](ds *geom.Set[T], cfg Config) (*Model, error) {
	if cfg.K < 1 {
		return nil, errors.New("kmeansll: Config.K must be ≥ 1")
	}
	if ds == nil || ds.N() == 0 {
		return nil, errors.New("kmeansll: no points")
	}
	if ds.Dim() == 0 {
		return nil, errors.New("kmeansll: zero-dimensional points")
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("kmeansll: %w", err)
	}
	return clusterDataset(ds, cfg)
}

// clusterDataset runs the seeding + refinement pipeline over a validated
// dataset, in the precision of the data (a float64 dataset narrowed once
// when Config.Precision asks for Float32): lower the optimizer, let it
// prepare the dataset (Spherical normalizes a private copy — seeding must
// see the same geometry the refinement optimizes), seed, refine.
func clusterDataset[T geom.Float](ds *geom.Set[T], cfg Config) (*Model, error) {
	if cfg.Precision == Float32 && precisionOf[T]() == Float64 {
		return clusterDataset(geom.ConvertSet[float32](ds), cfg)
	}
	opt, err := cfg.OptimizerOrDefault().lower()
	if err != nil {
		return nil, err
	}
	ds, err = lloyd.Prepare(opt, ds)
	if err != nil {
		return nil, fmt.Errorf("kmeansll: %w", err)
	}
	dim := ds.Dim()
	var centers *geom.Matrix
	var seedCost float64
	switch cfg.Init {
	case KMeansParallel:
		over := cfg.Oversampling
		if over <= 0 {
			over = 2
		}
		var stats core.Stats
		centers, stats = core.Init(ds, core.Config{
			K: cfg.K, L: over * float64(cfg.K), Rounds: cfg.Rounds,
			Parallelism: cfg.Parallelism, Seed: cfg.Seed,
		})
		seedCost = stats.SeedCost
	case KMeansPlusPlus:
		centers = seed.KMeansPP(ds, cfg.K, rng.New(cfg.Seed), cfg.Parallelism)
		seedCost = lloyd.Cost(ds, geom.Convert[T](centers), cfg.Parallelism)
	case RandomInit:
		centers = seed.Random(ds, cfg.K, rng.New(cfg.Seed))
		seedCost = lloyd.Cost(ds, geom.Convert[T](centers), cfg.Parallelism)
	case PartitionInit:
		var stats stream.Stats
		centers, stats = stream.Partition(ds, stream.Config{
			K: cfg.K, Parallelism: cfg.Parallelism, Seed: cfg.Seed,
		})
		seedCost = stats.SeedCost
	default:
		return nil, fmt.Errorf("kmeansll: unknown InitMethod %d", cfg.Init)
	}

	res := lloyd.Refine(opt, ds, centers, lloyd.Config{
		MaxIter: cfg.MaxIter, Parallelism: cfg.Parallelism,
	}, cfg.Seed)

	out := &Model{
		Cost:        res.Cost,
		SeedCost:    seedCost,
		Iters:       res.Iters,
		Converged:   res.Converged,
		Outliers:    res.Outliers,
		TrimmedCost: res.TrimmedCost,
		Cohesion:    res.Cohesion,
		dim:         dim,
	}
	out.MarkFitPrecision(precisionOf[T]())
	out.Centers = make([][]float64, res.Centers.Rows)
	for c := range out.Centers {
		row := make([]float64, dim)
		copy(row, res.Centers.Row(c))
		out.Centers[c] = row
	}
	out.Assign = make([]int, len(res.Assign))
	for i, a := range res.Assign {
		out.Assign[i] = int(a)
	}
	return out, nil
}

// ClusterBest runs Cluster `restarts` times with derived seeds and returns
// the model with the lowest final cost. Restart seeds are cfg.Seed,
// cfg.Seed+1, ..., so results are reproducible. This is the classic remedy
// for Lloyd's local optima; §4.2 of the paper observes that even best-of-many
// Random seeding gains only marginally — a good D² seeding (the default
// k-means||) buys far more than extra restarts, which the
// `ablation_restarts` experiment reproduces.
func ClusterBest(points [][]float64, cfg Config, restarts int) (*Model, error) {
	if restarts < 1 {
		return nil, errors.New("kmeansll: restarts must be ≥ 1")
	}
	var best *Model
	for i := 0; i < restarts; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		m, err := Cluster(points, c)
		if err != nil {
			return nil, err
		}
		if best == nil || m.Cost < best.Cost {
			best = m
		}
	}
	return best, nil
}

// NewModel builds a servable model directly from a set of centers, e.g. one
// computed elsewhere and uploaded to the kmserved registry. The centers must
// be non-empty, rectangular and finite. The returned model has no training
// statistics (Cost, Iters and friends are zero) but fully supports Predict,
// PredictBatch, Transform and Save.
func NewModel(centers [][]float64) (*Model, error) {
	if len(centers) == 0 {
		return nil, errors.New("kmeansll: NewModel needs at least one center")
	}
	dim := len(centers[0])
	if dim == 0 {
		return nil, errors.New("kmeansll: zero-dimensional centers")
	}
	m := &Model{Centers: make([][]float64, len(centers)), dim: dim}
	for i, c := range centers {
		if len(c) != dim {
			return nil, fmt.Errorf("kmeansll: center %d has %d dims, want %d", i, len(c), dim)
		}
		for j, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("kmeansll: center %d col %d is non-finite", i, j)
			}
		}
		row := make([]float64, dim)
		copy(row, c)
		m.Centers[i] = row
	}
	return m, nil
}

// Predict returns the index of the center closest to the point.
//
// Predict panics when the point's dimensionality does not match the model's
// (as do Transform and PredictBatch): a dimension mismatch is a programming
// error, not a data condition. Callers handling untrusted input should check
// len(point) against Dim first.
func (m *Model) Predict(point []float64) int {
	if len(point) != m.dim {
		panic(fmt.Sprintf("kmeansll: Predict dim %d, model dim %d", len(point), m.dim))
	}
	best, bestD := 0, geom.SqDist(point, m.Centers[0])
	for c := 1; c < len(m.Centers); c++ {
		if d := geom.SqDistBound(point, m.Centers[c], bestD); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// PredictBatch switches from the (blocked) linear center scan to a kd-tree
// over the centers only for numerous, low-dimensional centers, and only
// where the tree is the faster path (predictTree). BenchmarkPredictRegimes
// on linux/amd64 (go1.24, a 2-vCPU AVX-512F Xeon), ms per 512-point batch
// at parallelism 1, medians of 5 runs (3 at k = 2048 and for the Go tile),
// the range over its two query sets; the AVX2 column forces the AVX2 rung
// on the same CPU:
//
//	d   k      tree       scan, AVX-512  scan, AVX2  scan, km_purego Go tile
//	1   256    0.11–0.15  0.04           0.08–0.09   0.48–0.59
//	1   384    0.16–0.18  0.06           0.13        0.67–0.91
//	1   1024   0.22–0.23  0.15           0.31–0.32   2.18–2.20
//	1   2048   0.21–0.26  0.27–0.32      0.58–0.65   3.18–3.68
//	2   256    0.18–0.24  0.05           0.08        0.38–0.67
//	2   384    0.25–0.29  0.07           0.14        0.89–0.94
//	2   1024   0.28–0.34  0.17–0.19      0.29–0.37   1.67–2.24
//	2   2048   0.29–0.37  0.33–0.40      0.76–0.78   2.83–4.65
//	3   256    0.37–0.44  0.06           0.11–0.12   0.71–0.72
//	3   384    0.41–0.47  0.08–0.09      0.13–0.17   0.76–0.97
//	3   1024   0.54–0.62  0.22           0.44        1.66–2.64
//	3   2048   0.57–0.69  0.42–0.44      0.75–1.24   3.25–3.27
//	4   256    0.62–0.73  0.07           0.13–0.14   0.72–0.83
//	4   1024   1.14–1.36  0.25           0.50        1.88–2.94
//	4   2048   1.12–1.42  0.52–0.54      0.70–0.89   5.17–5.30
//	16  256    5.3–9.5    0.14–0.15      0.27–0.33   1.56–1.66
//
// Pruning decays rapidly with dimension, so above predictTreeMaxDim the
// scan always wins. Without a panel kernel the Go tile loses to the tree
// from predictTreeMinK centers on at d ≤ 4 (km_purego; likewise arm64,
// amd64 without AVX2+FMA and the float32 tiers without panels), so the
// tree keeps that regime. A panel scan's cost grows linearly in k and the
// tree's barely, so the tree takes over again from predictPanelTreeK·(d+1)
// centers on (256, 384, 512 and 640), on either panel rung. That bound was
// measured on a CPU without AVX-512F, before the AVX2 argmin kept its best
// with VMINPD. On the CPU above both scans now beat the tree past it: the
// AVX-512 one at every k up to 1024 and, at d = 3 and 4, at 2048; the AVX2
// one at d = 1, k = 256 and 384, d = 2, k = 384, and d = 3 and 4, k = 1024.
// The bound stays, as these rows place no new one. The AVX-512 scan ties
// or loses at d = 1 and 2, k = 2048, with no row between 1024 and 2048;
// at d = 3 and 4 its crossover lies past every row; and the AVX2 rung
// runs on CPUs without AVX-512F, which this table does not cover.
const (
	predictTreeMinK   = 256
	predictTreeMaxDim = 4
	predictPanelTreeK = 128
)

// PredictBatch assigns every point to its nearest center and returns one
// cluster index per point, in order. The batch is processed by up to
// `parallelism` goroutines (≤ 0 means all CPUs). The nearest-center search
// scans the centers through the blocked pairwise-distance engine
// (internal/geom), with the center matrix and norms cached on the model,
// except for models with many low-dimensional centers (k ≥ 256, dim ≤ 4)
// whose scan would run no panel kernel — km_purego builds, CPUs without
// AVX2+FMA, a Float32 model on a float32 tier without one, or
// UseExactDistances(true) — or that have 128·(dim+1) centers or more:
// those descend a kd-tree built once over the centers (internal/kdtree).
// Both caches are built once, so Centers must not be mutated after the
// first PredictBatch call. Ties between equidistant centers may resolve
// differently between regimes; every answer is an exact nearest center.
//
// Like Predict, it panics if any point's dimensionality does not match the
// model's.
func (m *Model) PredictBatch(points [][]float64, parallelism int) []int {
	out := make([]int, len(points))
	m.PredictBatchInto(points, out, parallelism)
	return out
}

// PredictBatchInto is PredictBatch writing into a caller-provided slice
// (len(out) ≥ len(points)), for serving loops that reuse buffers: with a
// warm scratch pool the steady state allocates nothing per batch.
func (m *Model) PredictBatchInto(points [][]float64, out []int, parallelism int) {
	for i, p := range points {
		if len(p) != m.dim {
			panic(fmt.Sprintf("kmeansll: PredictBatch point %d dim %d, model dim %d", i, len(p), m.dim))
		}
	}
	if len(out) < len(points) {
		panic(fmt.Sprintf("kmeansll: PredictBatchInto out len %d for %d points", len(out), len(points)))
	}
	m.predictBatch(points, out, parallelism, m.predictTree())
}

// predictTree is PredictBatch's regime rule: the kd-tree for at least
// predictTreeMinK centers of at most predictTreeMaxDim dimensions, unless
// the blocked scan would run a panel kernel — the model is above
// UseBlocked's crossover and the kernel table of its predict precision has
// one — on fewer than predictPanelTreeK·(dim+1) centers.
func (m *Model) predictTree() bool {
	k, d := len(m.Centers), m.dim
	if k < predictTreeMinK || d > predictTreeMaxDim {
		return false
	}
	panel := geom.PanelKernel[float64]()
	if m.precision == Float32 {
		panel = geom.PanelKernel[float32]()
	}
	return !panel || !geom.UseBlocked(k, d) || k >= predictPanelTreeK*(d+1)
}

// predictBatch is PredictBatchInto with the kd-tree decision forced, so
// tests can exercise every regime at any k.
func (m *Model) predictBatch(points [][]float64, out []int, parallelism int, useTree bool) {
	if len(points) == 0 {
		return
	}
	if useTree {
		tree := m.centerTree()
		geom.ParallelFor(len(points), parallelism, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				c, _ := tree.Nearest(points[i])
				out[i] = c
			}
		})
		return
	}
	if geom.UseBlocked(len(m.Centers), m.dim) {
		if m.precision == Float32 {
			predictBlocked(&m.linear32, m.Centers, points, out, parallelism)
		} else {
			predictBlocked(&m.linear64, m.Centers, points, out, parallelism)
		}
		return
	}
	// Below the blocked crossover the float64 scalar scan is both exact
	// and as fast, in either precision.
	centers, _ := m.linear64.get(m.Centers)
	geom.ParallelFor(len(points), parallelism, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c, _ := geom.Nearest(points[i], centers)
			out[i] = c
		}
	})
}

// centerTree returns the cached kd-tree over the centers, building it on
// first use. Concurrent callers share one build via sync.Once.
func (m *Model) centerTree() *kdtree.Tree {
	m.centerIndex.once.Do(func() {
		m.centerIndex.tree = kdtree.Build(geom.NewDataset(geom.FromRows(m.Centers)), 0)
	})
	return m.centerIndex.tree
}

// UseExactDistances(true) globally disables the norm-expansion distance
// kernels, restoring plain (a−b)² arithmetic in every inner loop. The
// expansion ‖x‖²+‖c‖²−2⟨x,c⟩ carries absolute error proportional to the
// norms, so for data whose coordinates sit far from the origin (|x| ≫ 1e6
// with unit-scale cluster separations) D² sampling weights and assignments
// can be swamped by rounding noise; centering the data is the better fix,
// but this switch is the drop-in one. UseExactDistances(false) restores the
// measured-crossover default. The setting is process-global and meant to be
// flipped once at startup, not per call.
func UseExactDistances(on bool) {
	if on {
		geom.SetKernel(geom.KernelNaive)
	} else {
		geom.SetKernel(geom.KernelAuto)
	}
}

// K returns the number of centers in the model.
func (m *Model) K() int { return len(m.Centers) }

// Dim returns the dimensionality of the model's centers. Callers validating
// external input check it before Predict/Transform, which panic on mismatch.
func (m *Model) Dim() int { return m.dim }
