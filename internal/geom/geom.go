// Package geom provides the dense vector and matrix primitives that every
// other package builds on: row-major matrices, squared Euclidean distance
// kernels, centroids, and the point-set container (points plus optional
// per-point weights). Matrices and point sets are generic over the storage
// type (Mat[T], Set[T] for T float32 or float64; Matrix and Dataset are the
// float64 forms), and the per-precision arithmetic is one kernel table
// (kernels.go).
//
// Distance-heavy inner loops funnel through two kernel families so the
// k-means cost model is defined in exactly one place:
//
//   - SqDist / SqDistBound — one (point, center) pair at a time, unrolled,
//     with early termination against a running best. Best for small center
//     counts, where the bound prunes most coordinates.
//   - The blocked engine (blocked.go) — NearestBlocked, PairwiseSqDist,
//     RowSqNorms and pooled Scratch buffers. Distances are expanded as
//     ‖x‖² + ‖c‖² − 2⟨x,c⟩ with cached norms, and point×center tiles are
//     computed with a register-blocked inner-product kernel sized so the
//     center tile stays in L1. Best from a handful of centers up, and the
//     backbone of k-means|| round updates (which also record each point's
//     nearest candidate for Step 7), Lloyd assignment and batch serving.
//
// UseBlocked picks between the two from a measured crossover; SetKernel
// pins one for benchmarks and equivalence tests.
package geom

import (
	"fmt"
	"math"
)

// Float is the storage type of points and centers: the engine is written
// once over it. float64 is the bit-reproducible reference; float32 halves
// the memory traffic of every scan under the tolerance contract in
// docs/kernels.md. Reductions, weights, bounds and accumulators stay
// float64 in both. The per-precision arithmetic lives in one place, the
// kernel table in kernels.go.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix. Row i occupies
// Data[i*Cols : (i+1)*Cols]. The layout is chosen so that a "point" is a
// contiguous slice, which keeps the distance kernels cache-friendly and lets
// callers pass rows around without copying.
type Mat[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 matrix, the representation of centers and of the
// reference pipeline.
type Matrix = Mat[float64]

// NewMat allocates a zeroed rows×cols matrix.
func NewMat[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic("geom: negative matrix dimension")
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// NewMatrix allocates a zeroed rows×cols float64 matrix.
func NewMatrix(rows, cols int) *Matrix { return NewMat[float64](rows, cols) }

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("geom: ragged rows: row %d has %d cols, want %d", i, len(r), d))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat[T]) Row(i int) []T {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// RowRange returns a value view of rows [lo, hi) sharing the backing
// storage. The blocked kernels take matrix views, so per-chunk and
// per-round sub-scans need no copying.
func (m *Mat[T]) RowRange(lo, hi int) Mat[T] {
	return Mat[T]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// CopyRow copies row i into dst, which must have length Cols.
func (m *Mat[T]) CopyRow(i int, dst []T) {
	copy(dst, m.Row(i))
}

// Clone returns a deep copy.
func (m *Mat[T]) Clone() *Mat[T] {
	c := NewMat[T](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Reserve grows the backing storage so the matrix can hold at least rows
// rows without reallocating. Callers that append in a loop with a known
// upper bound (e.g. k-means|| collecting ~1+r·ℓ candidates) reserve once so
// AppendRow never copies. No-op when Cols is still unknown or capacity is
// already sufficient.
func (m *Mat[T]) Reserve(rows int) {
	if m.Cols <= 0 || rows <= 0 {
		return
	}
	need := rows * m.Cols
	if cap(m.Data) >= need {
		return
	}
	buf := make([]T, len(m.Data), need)
	copy(buf, m.Data)
	m.Data = buf
}

// AppendRow grows the matrix by one row (copying p). Amortized O(Cols).
func (m *Mat[T]) AppendRow(p []T) {
	if m.Rows == 0 && m.Cols == 0 {
		m.Cols = len(p)
	}
	if len(p) != m.Cols {
		panic(fmt.Sprintf("geom: AppendRow dim %d, want %d", len(p), m.Cols))
	}
	m.Data = append(m.Data, p...)
	m.Rows++
}

// SqDist returns the squared Euclidean distance between equal-length vectors
// a and b. The loop is unrolled 4-wide; for the dimensionalities in the paper
// (15–58) this is measurably faster than the naive loop and exact enough
// (summation order is fixed, keeping results deterministic).
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("geom: SqDist dimension mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// SqDistBound is SqDist with early termination: it returns a value ≥ bound as
// soon as the partial sum exceeds bound. Nearest-center search passes the
// best distance so far, which skips most of the work for far-away centers.
func SqDistBound(a, b []float64, bound float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s += d0*d0 + d1*d1 + d2*d2 + d3*d3
		if s >= bound {
			return s
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// Dot returns the inner product of a and c, accumulated in float64 (each
// a[i] widened exactly).
func Dot[T Float](a []T, c []float64) float64 {
	if len(a) != len(c) {
		panic("geom: Dot dimension mismatch")
	}
	var s float64
	for i := range a {
		s += float64(a[i]) * c[i]
	}
	return s
}

// SqNorm returns ‖a‖², accumulated in T in the summation order of T's
// kernel table: one chain for float64, four for float32 — the order the
// blocked kernels' cached norms use.
func SqNorm[T Float](a []T) T { return kernelsFor[T]().sqNorm(a) }

// AddScaled sets dst += scale·src, widening each source value — the
// accumulation step of every center update, which keeps center sums in
// float64 so cluster means do not drift with cluster size.
func AddScaled[T Float](dst []float64, scale float64, src []T) {
	if len(dst) != len(src) {
		panic("geom: AddScaled dimension mismatch")
	}
	for i := range dst {
		dst[i] += scale * float64(src[i])
	}
}

// Scale multiplies every element of a by s in place. For float32 storage
// the product is taken in float64 and rounded back.
func Scale[T Float](a []T, s float64) {
	for i := range a {
		//kmlint:ignore precision Scale rounds its float64 product back to the storage type by design
		a[i] = T(float64(a[i]) * s)
	}
}

// Centroid returns the unweighted mean of the given rows of m. It panics if
// idx is empty.
func Centroid(m *Matrix, idx []int) []float64 {
	if len(idx) == 0 {
		panic("geom: Centroid of empty set")
	}
	c := make([]float64, m.Cols)
	for _, i := range idx {
		AddScaled(c, 1, m.Row(i))
	}
	Scale(c, 1/float64(len(idx)))
	return c
}

// Set is a set of points with optional per-point positive weights. A nil
// Weight slice means every point has weight 1 (the common unweighted case);
// this avoids allocating n floats for the large raw datasets. Weights stay
// float64 for every storage type: they are O(n) rather than O(n·d) bytes,
// and D² sampling sums them across the whole dataset, where float32
// accumulation would lose mass.
type Set[T Float] struct {
	X      *Mat[T]
	Weight []float64 // nil ⇒ all ones
}

// Dataset is the float64 point set.
type Dataset = Set[float64]

// NewDataset wraps a matrix as an unweighted dataset.
func NewDataset[T Float](x *Mat[T]) *Set[T] { return &Set[T]{X: x} }

// N returns the number of points.
func (d *Set[T]) N() int { return d.X.Rows }

// Dim returns the dimensionality.
func (d *Set[T]) Dim() int { return d.X.Cols }

// W returns the weight of point i.
func (d *Set[T]) W(i int) float64 {
	if d.Weight == nil {
		return 1
	}
	return d.Weight[i]
}

// TotalWeight returns the sum of all point weights.
func (d *Set[T]) TotalWeight() float64 {
	if d.Weight == nil {
		return float64(d.N())
	}
	var s float64
	for _, w := range d.Weight {
		s += w
	}
	return s
}

// Point returns point i as a slice aliasing the dataset storage.
func (d *Set[T]) Point(i int) []T { return d.X.Row(i) }

// Subset returns a new dataset containing the given rows (copied), carrying
// weights along when present.
func (d *Set[T]) Subset(idx []int) *Set[T] {
	m := NewMat[T](len(idx), d.Dim())
	var w []float64
	if d.Weight != nil {
		w = make([]float64, len(idx))
	}
	for j, i := range idx {
		copy(m.Row(j), d.Point(i))
		if w != nil {
			w[j] = d.Weight[i]
		}
	}
	return &Set[T]{X: m, Weight: w}
}

// Validate checks structural invariants (weight length, finite values) and
// returns a descriptive error. Generators and loaders call it in tests.
func (d *Set[T]) Validate() error {
	if d.X == nil {
		return fmt.Errorf("geom: dataset has nil matrix")
	}
	if len(d.X.Data) != d.X.Rows*d.X.Cols {
		return fmt.Errorf("geom: matrix storage %d != %d×%d", len(d.X.Data), d.X.Rows, d.X.Cols)
	}
	if d.Weight != nil && len(d.Weight) != d.X.Rows {
		return fmt.Errorf("geom: %d weights for %d points", len(d.Weight), d.X.Rows)
	}
	if !allFinite(d.X.Data) {
		for i, v := range d.X.Data {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("geom: non-finite value at flat index %d", i)
			}
		}
	}
	for i, w := range d.Weight {
		if !(w > 0) {
			return fmt.Errorf("geom: non-positive weight %v at %d", w, i)
		}
	}
	return nil
}

// allFinite reports whether every value of vs is finite without a branch
// per value: v − v is 0 for a finite v and NaN for ±Inf or NaN, so the
// differences sum to 0 exactly when every value is finite. Four chains
// keep the adds from waiting on one another.
func allFinite[T Float](vs []T) bool {
	var s0, s1, s2, s3 T
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		s0 += vs[i] - vs[i]
		s1 += vs[i+1] - vs[i+1]
		s2 += vs[i+2] - vs[i+2]
		s3 += vs[i+3] - vs[i+3]
	}
	for ; i < len(vs); i++ {
		s0 += vs[i] - vs[i]
	}
	return (s0+s1)+(s2+s3) == 0
}
