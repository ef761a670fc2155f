package geom

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"kmeansll/internal/rng"
)

func TestSqDistKnown(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 2}
	if d := SqDist(a, b); d != 9 {
		t.Fatalf("SqDist = %v, want 9", d)
	}
	if d := Dist(a, b); d != 3 {
		t.Fatalf("Dist = %v, want 3", d)
	}
}

func TestSqDistMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SqDist([]float64{1}, []float64{1, 2})
}

// Property: SqDist agrees with the naive definition for all lengths,
// including the unrolled remainder cases.
func TestSqDistMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for n := 0; n <= 17; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		naive := 0.0
		for i := range a {
			d := a[i] - b[i]
			naive += d * d
		}
		if got := SqDist(a, b); math.Abs(got-naive) > 1e-12*(1+naive) {
			t.Fatalf("n=%d: SqDist=%v naive=%v", n, got, naive)
		}
	}
}

func TestSqDistBoundEarlyExitStillUpper(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64() * 10
			b[i] = r.NormFloat64() * 10
		}
		full := SqDist(a, b)
		bound := r.Float64() * full * 2
		got := SqDistBound(a, b, bound)
		if got < bound && math.Abs(got-full) > 1e-9*(1+full) {
			t.Fatalf("early-exit returned %v < bound %v but != full %v", got, bound, full)
		}
		if got >= bound && got > full+1e-9*(1+full) && math.Abs(got-full) > 1e-9 {
			// got may be a partial sum ≥ bound; it must never exceed full
			// by more than rounding.
			if got > full*(1+1e-12)+1e-12 {
				t.Fatalf("partial sum %v exceeds full distance %v", got, full)
			}
		}
	}
}

func TestSymmetryAndTriangleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
		if math.Abs(SqDist(a, b)-SqDist(b, a)) > 1e-12 {
			return false
		}
		// Triangle inequality on the (non-squared) distance.
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixRowAliases(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Row(1)[0] = 42
	if m.Data[2] != 42 {
		t.Fatal("Row does not alias storage")
	}
}

func TestFromRowsAndAppend(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.Row(1)[1] != 4 {
		t.Fatalf("FromRows wrong: %+v", m)
	}
	m.AppendRow([]float64{5, 6})
	if m.Rows != 3 || m.Row(2)[0] != 5 {
		t.Fatalf("AppendRow wrong: %+v", m)
	}
	empty := &Matrix{}
	empty.AppendRow([]float64{7, 8, 9})
	if empty.Rows != 1 || empty.Cols != 3 {
		t.Fatalf("AppendRow to empty wrong: %+v", empty)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCentroid(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {2, 4}, {4, 2}})
	c := Centroid(m, []int{0, 1, 2})
	if c[0] != 2 || c[1] != 2 {
		t.Fatalf("centroid = %v, want [2 2]", c)
	}
	c = Centroid(m, []int{1})
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("singleton centroid = %v", c)
	}
}

func TestNearest(t *testing.T) {
	centers := FromRows([][]float64{{0, 0}, {10, 0}, {0, 10}})
	idx, d := Nearest([]float64{9, 1}, centers)
	if idx != 1 || math.Abs(d-2) > 1e-12 {
		t.Fatalf("Nearest = (%d, %v), want (1, 2)", idx, d)
	}
}

func TestCostWeighted(t *testing.T) {
	x := FromRows([][]float64{{0}, {4}})
	ds := &Dataset{X: x, Weight: []float64{1, 3}}
	centers := FromRows([][]float64{{1}})
	// cost = 1*(1)^2 + 3*(3)^2 = 1 + 27
	if c := Cost(ds, centers); math.Abs(c-28) > 1e-12 {
		t.Fatalf("weighted cost = %v, want 28", c)
	}
}

func TestDatasetDefaults(t *testing.T) {
	ds := NewDataset(FromRows([][]float64{{1, 2}, {3, 4}}))
	if ds.N() != 2 || ds.Dim() != 2 || ds.W(0) != 1 || ds.TotalWeight() != 2 {
		t.Fatalf("unweighted dataset accessors wrong")
	}
	if err := ds.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSubsetCarriesWeights(t *testing.T) {
	ds := &Dataset{X: FromRows([][]float64{{1}, {2}, {3}}), Weight: []float64{1, 2, 3}}
	sub := ds.Subset([]int{2, 0})
	if sub.N() != 2 || sub.Point(0)[0] != 3 || sub.Weight[0] != 3 || sub.Weight[1] != 1 {
		t.Fatalf("Subset wrong: %+v %v", sub.X, sub.Weight)
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	ds := NewDataset(FromRows([][]float64{{math.NaN()}}))
	if ds.Validate() == nil {
		t.Fatal("Validate accepted NaN")
	}
	ds2 := &Dataset{X: FromRows([][]float64{{1}}), Weight: []float64{0}}
	if ds2.Validate() == nil {
		t.Fatal("Validate accepted zero weight")
	}
	ds3 := &Dataset{X: FromRows([][]float64{{1}}), Weight: []float64{1, 2}}
	if ds3.Validate() == nil {
		t.Fatal("Validate accepted weight length mismatch")
	}
	checkValidateNonFinite[float64](t)
	checkValidateNonFinite[float32](t)
}

// checkValidateNonFinite plants NaN, +Inf and −Inf at the first, a middle
// and the last flat index of a matrix whose other values include ±Max of
// T, and requires Validate to name that index, and to accept the matrix
// without the plant.
func checkValidateNonFinite[T Float](t *testing.T) {
	t.Helper()
	maxF := math.MaxFloat32
	if Bits[T]() == 64 {
		maxF = math.MaxFloat64
	}
	huge := T(maxF)
	m := NewMat[T](7, 5) // 35 values: a 4-wide body and a tail of 3
	for i := range m.Data {
		m.Data[i] = T(i) - 17
	}
	m.Data[3], m.Data[20] = huge, -huge
	ds := NewDataset(m)
	if err := ds.Validate(); err != nil {
		t.Fatalf("%d-bit: Validate rejected finite data: %v", Bits[T](), err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 17, len(m.Data) - 1} {
			keep := m.Data[at]
			m.Data[at] = T(bad)
			want := fmt.Sprintf("geom: non-finite value at flat index %d", at)
			if err := ds.Validate(); err == nil || err.Error() != want {
				t.Fatalf("%d-bit: %v at %d: Validate = %v, want %q", Bits[T](), bad, at, err, want)
			}
			m.Data[at] = keep
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1001} {
		for _, w := range []int{0, 1, 3, 8, 200} {
			var count int64
			seen := make([]int32, n)
			chunks := ParallelFor(n, w, func(chunk, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
					atomic.AddInt64(&count, 1)
				}
			})
			if n == 0 {
				if chunks != 0 {
					t.Fatalf("expected 0 chunks for n=0")
				}
				continue
			}
			if int(count) != n {
				t.Fatalf("n=%d w=%d: visited %d", n, w, count)
			}
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, s)
				}
			}
			if chunks != ChunkCount(n, w) {
				t.Fatalf("ChunkCount mismatch: %d vs %d", chunks, ChunkCount(n, w))
			}
		}
	}
}

func TestAddScaledAndScale(t *testing.T) {
	a := []float64{1, 2}
	AddScaled(a, 2, []float64{10, 20})
	if a[0] != 21 || a[1] != 42 {
		t.Fatalf("AddScaled wrong: %v", a)
	}
	Scale(a, 0.5)
	if a[0] != 10.5 || a[1] != 21 {
		t.Fatalf("Scale wrong: %v", a)
	}
}

func BenchmarkSqDist58(b *testing.B) {
	r := rng.New(1)
	a := make([]float64, 58)
	c := make([]float64, 58)
	for i := range a {
		a[i], c[i] = r.NormFloat64(), r.NormFloat64()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += SqDist(a, c)
	}
	_ = sink
}

func BenchmarkNearest100(b *testing.B) {
	r := rng.New(1)
	centers := NewMatrix(100, 42)
	for i := range centers.Data {
		centers.Data[i] = r.NormFloat64()
	}
	p := make([]float64, 42)
	for i := range p {
		p[i] = r.NormFloat64()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		_, d := Nearest(p, centers)
		sink += d
	}
	_ = sink
}
