package geom

import (
	"math"
	"runtime"
	"testing"
)

func TestDotKnown(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
	if d := Dot[float64](nil, nil); d != 0 {
		t.Fatalf("empty Dot = %v", d)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSqNorm(t *testing.T) {
	if n := SqNorm([]float64{3, 4}); n != 25 {
		t.Fatalf("SqNorm = %v, want 25", n)
	}
	if n := SqNorm[float64](nil); n != 0 {
		t.Fatalf("empty SqNorm = %v", n)
	}
}

func TestWorkersDefaults(t *testing.T) {
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(-5); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-5) = %d", w)
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestCentroidEmptyPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Centroid(m, nil)
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Row(0)[0] = 99
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestSqDistBoundZeroBound(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{1, 2, 3, 4, 5}
	if d := SqDistBound(a, b, 0); d != 0 {
		t.Fatalf("identical points: %v", d)
	}
	// bound 0 with different points returns ≥ 0 immediately.
	c := []float64{2, 2, 3, 4, 5}
	if d := SqDistBound(a, c, 0); d < 0 {
		t.Fatalf("negative distance %v", d)
	}
}

func TestTotalWeightWeighted(t *testing.T) {
	ds := &Dataset{X: FromRows([][]float64{{1}, {2}}), Weight: []float64{2.5, 3.5}}
	if w := ds.TotalWeight(); math.Abs(w-6) > 1e-12 {
		t.Fatalf("TotalWeight = %v", w)
	}
}

func TestNearestSingleCenter(t *testing.T) {
	centers := FromRows([][]float64{{5, 5}})
	idx, d := Nearest([]float64{5, 6}, centers)
	if idx != 0 || d != 1 {
		t.Fatalf("Nearest = (%d, %v)", idx, d)
	}
}

func TestNearestNoCentersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Nearest([]float64{1}, &Matrix{Cols: 1})
}
