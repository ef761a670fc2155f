// Package bad narrows float64 values to float32 inside the kernel scope —
// the conversions the precision contract (docs/kernels.md) forbids outside
// blessed sites. The harness checks it as kmeansll/internal/lloyd.
package bad

// NarrowBound narrows an Elkan-style bound — the exact bug the contract
// exists to prevent.
func NarrowBound(bound float64) float32 {
	return float32(bound) // want "float64→float32 narrowing conversion"
}

// NarrowAccumulator narrows a running sum inside a loop.
func NarrowAccumulator(xs []float32) []float32 {
	var acc float64
	out := make([]float32, len(xs))
	for i, x := range xs {
		acc += float64(x)
		out[i] = float32(acc) // want "float64→float32 narrowing conversion"
	}
	return out
}

// NarrowGeneric narrows through a type parameter whose type set holds
// float32: the generic form of NarrowBound.
func NarrowGeneric[T ~float32 | ~float64](bound float64) T {
	return T(bound) // want "float64→float32 narrowing conversion"
}

// Storage is a named constraint, the way geom.Float is declared.
type Storage interface{ float32 | float64 }

// NarrowNamedConstraint narrows through a named constraint's type set.
func NarrowNamedConstraint[T Storage](xs []float64) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = T(x) // want "float64→float32 narrowing conversion"
	}
	return out
}

// BlessedNarrow is allowed: the site carries a justified suppression, the
// way geom.ConvertRow does.
func BlessedNarrow(v float64) float32 {
	//kmlint:ignore precision fixture: documented narrowing funnel
	return float32(v)
}
