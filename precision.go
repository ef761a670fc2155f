package kmeansll

import (
	"fmt"
	"sync"

	"kmeansll/internal/geom"
)

// Precision selects the arithmetic of the fit's distance-heavy passes.
//
// Float64 is the reference: bit-identical results for a given seed, the
// contract every equivalence test in this repo pins. Float32 stores the
// points as float32 and runs the same generic engine over them
// (internal/geom's float32 kernel table) — half the memory bandwidth and,
// on amd64, SIMD dot products — while keeping every cross-point
// accumulation (center sums, weights, costs, D² sampling) in float64.
// Float32 results are not bit-comparable to Float64; they follow the
// tolerance contract in docs/kernels.md (≥99.9% assignment agreement and
// ~1e-6 relative cost error on unit-scale data up to 128 dims). Seeding
// under Float32 draws from the same distributions but may make different
// sampling choices where float32 rounding perturbs a D² weight.
type Precision int

const (
	// Float64 runs every pass in double precision (default).
	Float64 Precision = iota
	// Float32 runs every seeding, every optimizer and batch prediction in
	// single precision. Model.PrecisionEffective reports which arithmetic
	// actually ran.
	Float32
)

func (p Precision) String() string {
	switch p {
	case Float64:
		return "f64"
	case Float32:
		return "f32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision parses the CLI/JSON form of a Precision: "f64"/"float64"
// (or empty, meaning the default) and "f32"/"float32".
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64", "float64":
		return Float64, nil
	case "f32", "float32":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("kmeansll: unknown precision %q (want f64 or f32)", s)
	}
}

// precisionOf reports the Precision of storage type T.
func precisionOf[T geom.Float]() Precision {
	if geom.Bits[T]() == 32 {
		return Float32
	}
	return Float64
}

// SetPredictPrecision selects the arithmetic PredictBatch uses: Float32
// routes the blocked linear-scan regime through the single-precision engine
// (models fitted via the float32 path default to it). Call before the first
// PredictBatch — the per-precision center caches are built once — and not
// concurrently with prediction. Predict (single point) and the kd-tree
// regime always use float64; answers there are exact either way. A Float32
// model of 256 to 128·(dim+1) − 1 centers in dim ≤ 4 scans in float32 where
// the float32 panel kernel runs (the AVX2 tier, on either panel width) and
// takes the kd-tree elsewhere.
//
// Float32 cannot separate centers packed closer than its rounding of the
// norm expansion, ~1e-4·(‖x‖²+1): the tolerance contract's ≥ 99.9%
// agreement with float64 does not hold for such models. With the scan
// forced at d = 1 (centers 10·N(0,1)), agreement was 92.5% at 4101 centers
// and 82.5% at 8197, every disagreement a near-tie, while
// PrecisionEffective still reported Float32. See docs/kernels.md, "What
// float32 cannot do".
func (m *Model) SetPredictPrecision(p Precision) { m.precision = p }

// PredictPrecision reports the precision PredictBatch's linear-scan regime
// runs at.
func (m *Model) PredictPrecision() Precision { return m.precision }

// MarkFitPrecision records that the model came out of a fit pipeline that ran
// entirely at precision p: it sets the requested and effective fit precisions
// and the PredictBatch default together. Engine frontends that assemble a
// Model from raw fit results — the distributed coordinator's Model helper,
// CLI drivers — use it; models from Cluster/ClusterDataset are already
// marked.
func (m *Model) MarkFitPrecision(p Precision) {
	m.precision = p
	m.precisionRequested = p
	m.precisionEffective = p
}

// PrecisionRequested reports the precision the fit was asked for
// (Config.Precision, or Float32 for a float32 dataset passed to
// ClusterDataset). Float64 for models built outside the fit pipeline
// (NewModel, Load).
func (m *Model) PrecisionRequested() Precision { return m.precisionRequested }

// PrecisionEffective reports the precision the fit actually ran at. Every
// configuration runs at the requested precision today; the field stays so a
// fit that has to widen (float32 cancellation far from the origin, see
// docs/kernels.md) can say so.
func (m *Model) PrecisionEffective() Precision { return m.precisionEffective }

// linearIndex lazily caches the contiguous center matrix of one precision
// and its norms, for PredictBatch's blocked linear-scan regime and
// TransformBatch. Built at most once, so Centers must not be mutated after
// the first call that uses it.
type linearIndex[T geom.Float] struct {
	once  sync.Once
	mat   *geom.Mat[T]
	norms []T
}

// get returns the cached matrix and norms, building them from centers on
// first use.
func (x *linearIndex[T]) get(centers [][]float64) (*geom.Mat[T], []T) {
	x.once.Do(func() {
		x.mat = geom.Convert[T](geom.FromRows(centers))
		x.norms = geom.RowSqNorms(x.mat, nil)
	})
	return x.mat, x.norms
}

// predictBlocked is PredictBatch's blocked linear scan in precision T.
func predictBlocked[T geom.Float](idx *linearIndex[T], centers [][]float64, points [][]float64, out []int, parallelism int) {
	mat, norms := idx.get(centers)
	if geom.ChunkCount(len(points), parallelism) == 1 {
		// Serial fast path: no ParallelFor closure, so a warm scratch
		// pool makes the whole call allocation-free.
		sc := geom.GetScratch[T]()
		geom.NearestBlockedRows(points, mat, norms, out, sc)
		sc.Release()
		return
	}
	geom.ParallelFor(len(points), parallelism, func(_, lo, hi int) {
		sc := geom.GetScratch[T]()
		geom.NearestBlockedRows(points[lo:hi], mat, norms, out[lo:hi], sc)
		sc.Release()
	})
}
