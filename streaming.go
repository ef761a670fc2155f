package kmeansll

import (
	"errors"
	"fmt"

	"kmeansll/internal/coreset"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

// StreamingClusterer consumes points one at a time in bounded memory and can
// produce a k-clustering of everything seen so far at any moment. It is
// backed by the StreamKM++ merge-and-reduce coreset (internal/coreset): the
// memory footprint is O(CoresetSize·log(n/CoresetSize)) points regardless of
// stream length.
//
//	sc, _ := kmeansll.NewStreamingClusterer(kmeansll.StreamingConfig{K: 50, Dim: 42})
//	for p := range feed { sc.Add(p) }
//	model, _ := sc.Model()
type StreamingClusterer struct {
	k       int
	maxIter int
	opt     lloyd.Opt
	optName string
	stream  *coreset.Stream
}

// StreamingConfig sizes a StreamingClusterer.
type StreamingConfig struct {
	// K is the number of clusters a Model() call produces. Required.
	K int
	// Dim is the point dimensionality. Required.
	Dim int
	// CoresetSize is the summary size m; 0 means 20·K (a good default per
	// the StreamKM++ paper).
	CoresetSize int
	// MaxIter caps the refinement iterations of each Model() call;
	// 0 means 100 (the StreamKM++ endgame's usual budget).
	MaxIter int
	// Optimizer selects the refinement variant clustering the coreset;
	// nil means Lloyd{}. Same composability as Config.Optimizer — the
	// coreset is just another data source.
	Optimizer Optimizer
	// Seed makes the run deterministic.
	Seed uint64
}

// NewStreamingClusterer validates the config and returns a ready clusterer.
func NewStreamingClusterer(cfg StreamingConfig) (*StreamingClusterer, error) {
	if cfg.K < 1 {
		return nil, errors.New("kmeansll: StreamingConfig.K must be ≥ 1")
	}
	if cfg.Dim < 1 {
		return nil, errors.New("kmeansll: StreamingConfig.Dim must be ≥ 1")
	}
	if cfg.MaxIter < 0 {
		return nil, errors.New("kmeansll: StreamingConfig.MaxIter must be ≥ 0")
	}
	m := cfg.CoresetSize
	if m <= 0 {
		m = 20 * cfg.K
	}
	if m < 2 {
		m = 2
	}
	optimizer := cfg.Optimizer
	if optimizer == nil {
		optimizer = Lloyd{}
	}
	opt, err := optimizer.lower()
	if err != nil {
		return nil, err
	}
	return &StreamingClusterer{
		k:       cfg.K,
		maxIter: cfg.MaxIter,
		opt:     opt,
		optName: optimizer.String(),
		stream:  coreset.NewStream(m, cfg.Dim, cfg.Seed),
	}, nil
}

// Add consumes one point. It returns an error (instead of panicking) on a
// dimension mismatch, since streaming inputs are often externally sourced.
func (s *StreamingClusterer) Add(p []float64) error {
	if len(p) != s.stream.Dim() {
		return fmt.Errorf("kmeansll: point dim %d, stream dim %d", len(p), s.stream.Dim())
	}
	s.stream.Add(p)
	return nil
}

// N returns the number of points consumed so far.
func (s *StreamingClusterer) N() int { return s.stream.N() }

// Buffered returns the number of weighted points the bounded coreset summary
// currently holds in memory — the clusterer's actual footprint, which stays
// O(CoresetSize·log(N/CoresetSize)) however large N grows.
func (s *StreamingClusterer) Buffered() int { return s.stream.Buffered() }

// Model clusters the current coreset into k centers with the configured
// optimizer. The returned Model has no Assign and no Outliers (the stream is
// not retained, and coreset-representative indices would be meaningless to
// the caller); Predict works as usual. Cost is the weighted cost on the
// coreset — an estimate of the cost on the full history — SeedCost the
// coreset cost right after seeding, and Iters/Converged report what the
// refinement actually did (a MaxIter too small for the coreset really does
// surface as Converged=false).
func (s *StreamingClusterer) Model() (*Model, error) {
	if s.stream.N() == 0 {
		return nil, errors.New("kmeansll: no points consumed")
	}
	res, err := s.stream.ClusterOpt(s.k, s.opt, lloyd.Config{MaxIter: s.maxIter})
	if err != nil {
		return nil, fmt.Errorf("kmeansll: %w", err)
	}
	m := &Model{
		Cost:      res.Cost,
		SeedCost:  res.SeedCost,
		Iters:     res.Iters,
		Converged: res.Converged,
		Cohesion:  res.Cohesion,
		dim:       res.Centers.Cols,
	}
	m.Centers = matrixRows(res.Centers)
	return m, nil
}

// Optimizer returns the canonical spec string of the configured refinement
// variant (e.g. "lloyd:naive"), for serving layers that record model
// provenance.
func (s *StreamingClusterer) Optimizer() string { return s.optName }

func matrixRows(x *geom.Matrix) [][]float64 {
	out := make([][]float64, x.Rows)
	for i := range out {
		row := make([]float64, x.Cols)
		copy(row, x.Row(i))
		out[i] = row
	}
	return out
}

// Transform returns the squared Euclidean distance from the point to every
// center — the feature-transform view of a fitted model (one column per
// cluster), useful for downstream anomaly scoring.
//
// Like Predict, it panics if the point's dimensionality does not match the
// model's; callers handling untrusted input should check len(point) against
// Dim first.
func (m *Model) Transform(point []float64) []float64 {
	if len(point) != m.dim {
		panic(fmt.Sprintf("kmeansll: Transform dim %d, model dim %d", len(point), m.dim))
	}
	out := make([]float64, len(m.Centers))
	for c, center := range m.Centers {
		out[c] = geom.SqDist(point, center)
	}
	return out
}

// TransformBatch returns Transform for every point: out[i][c] is the squared
// distance from points[i] to center c. The whole result is backed by one
// flat allocation (row i aliases it), and the distances are computed with
// the blocked norm-expansion kernels against the model's cached center
// norms, so large batches run at the same throughput as PredictBatch. The
// batch is processed by up to `parallelism` goroutines (≤ 0 means all CPUs).
//
// Like Transform, it panics if any point's dimensionality does not match
// the model's.
func (m *Model) TransformBatch(points [][]float64, parallelism int) [][]float64 {
	for i, p := range points {
		if len(p) != m.dim {
			panic(fmt.Sprintf("kmeansll: TransformBatch point %d dim %d, model dim %d", i, len(p), m.dim))
		}
	}
	k := len(m.Centers)
	flat := make([]float64, len(points)*k)
	out := make([][]float64, len(points))
	for i := range out {
		out[i] = flat[i*k : (i+1)*k]
	}
	if len(points) == 0 {
		return out
	}
	centers, norms := m.linear64.get(m.Centers)
	if !geom.UseBlocked(k, m.dim) {
		// Small models — or an UseExactDistances pin — keep Transform's
		// exact (a−b)² arithmetic.
		geom.ParallelFor(len(points), parallelism, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				row := out[i]
				for c := 0; c < k; c++ {
					row[c] = geom.SqDist(points[i], centers.Row(c))
				}
			}
		})
		return out
	}
	geom.ParallelFor(len(points), parallelism, func(_, lo, hi int) {
		sc := geom.GetScratch[float64]()
		geom.PairwiseSqDistRows(points[lo:hi], centers, norms, flat[lo*k:hi*k], sc)
		sc.Release()
	})
	return out
}
