// Package clean stays inside the precision contract: widening is exact and
// free, float32 arithmetic on float32 values needs no conversion, and ±Inf
// sentinels narrow exactly.
package clean

import "math"

// Widen is float32→float64 widening — always exact, always allowed.
func Widen(x float32) float64 {
	return float64(x)
}

// InfSentinel seeds a bound with +Inf, which float32 represents exactly.
func InfSentinel() float32 {
	return float32(math.Inf(1))
}

// UntypedConst converts an untyped constant, which never had a float64
// identity to lose.
func UntypedConst() float32 {
	return float32(1e9)
}

// F64Accumulate keeps the accumulator wide and returns it wide — the
// pattern the mini-batch and bounds code must follow.
func F64Accumulate(xs []float32) float64 {
	var acc float64
	for _, x := range xs {
		acc += float64(x)
	}
	return acc
}

// WidenGeneric widens a type-parameter value — exact for either type.
func WidenGeneric[T ~float32 | ~float64](x T) float64 {
	return float64(x)
}

// GenericInf seeds a generic sentinel with +Inf, exact in either type.
func GenericInf[T ~float32 | ~float64]() T {
	return T(math.Inf(1))
}

// GenericConst converts an untyped constant into a type parameter.
func GenericConst[T ~float32 | ~float64]() T {
	return T(0.5)
}

// Float64Only converts into a type parameter whose type set holds only
// float64: nothing can narrow.
func Float64Only[T ~float64](v float64) T {
	return T(v)
}
