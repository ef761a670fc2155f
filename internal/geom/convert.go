package geom

// This file is the blessed precision funnel: the only place float64 values
// are narrowed into float32 storage (through the kernel table's convert,
// narrow32 in kernels.go) and where storage rows are widened back. Callers
// above geom convert through these functions instead of writing their own
// float32(x) conversions, which the kmlint precision analyzer rejects.

// ConvertRow copies one float64 row into dst as T (rounding to nearest for
// float32). dst must have length ≥ len(p); the written prefix is returned.
func ConvertRow[T Float](dst []T, p []float64) []T {
	dst = dst[:len(p)]
	kernelsFor[T]().convert(dst, p)
	return dst
}

// Convert returns a T copy of m (rounding to nearest for float32); m is not
// modified.
func Convert[T Float](m *Matrix) *Mat[T] {
	out := NewMat[T](m.Rows, m.Cols)
	kernelsFor[T]().convert(out.Data, m.Data)
	return out
}

// ConvertSet returns a T copy of ds: the points converted as by Convert
// (float32 sources widen exactly first), the weight slice copied.
func ConvertSet[T, S Float](ds *Set[S]) *Set[T] {
	x, ok := any(ds.X).(*Matrix)
	if !ok {
		x = Widen(ds.X)
	}
	out := &Set[T]{X: Convert[T](x)}
	if ds.Weight != nil {
		out.Weight = append([]float64(nil), ds.Weight...)
	}
	return out
}

// Widen returns a float64 copy of m. Exact: every float32 is representable
// as a float64.
func Widen[T Float](m *Mat[T]) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// WidenRow copies one T row into dst as float64 (exact).
func WidenRow[T Float](dst []float64, p []T) []float64 {
	dst = dst[:len(p)]
	for j, v := range p {
		dst[j] = float64(v)
	}
	return dst
}

// WidenSet returns a float64 copy of ds: the points widened as by Widen,
// the weight slice copied.
func WidenSet[T Float](ds *Set[T]) *Dataset {
	out := &Dataset{X: Widen(ds.X)}
	if ds.Weight != nil {
		out.Weight = append([]float64(nil), ds.Weight...)
	}
	return out
}

// WidenRows returns rows idx of m, in that order, as a float64 matrix
// (exact).
func WidenRows[T Float](m *Mat[T], idx []int) *Matrix {
	out := NewMatrix(len(idx), m.Cols)
	for j, i := range idx {
		WidenRow(out.Row(j), m.Row(i))
	}
	return out
}
