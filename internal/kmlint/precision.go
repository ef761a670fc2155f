package kmlint

import (
	"go/ast"
	"go/types"
)

// precisionScope is where the float32/float64 boundary is load-bearing:
// every package written generically over the point storage type.
// docs/kernels.md pins the contract — T storage and dot products, f64
// reductions, bounds and accumulators — so every f64→f32 narrowing in these
// packages is either the blessed conversion funnel (geom.ConvertRow and
// friends, suppressed at the site with a reason) or a bug that silently
// voids the tolerance contract.
var precisionScope = map[string]bool{
	"kmeansll/internal/geom":   true,
	"kmeansll/internal/lloyd":  true,
	"kmeansll/internal/seed":   true,
	"kmeansll/internal/core":   true,
	"kmeansll/internal/mrkm":   true,
	"kmeansll/internal/stream": true,
	"kmeansll/internal/distkm": true,
}

// PrecisionAnalyzer flags float64→float32 narrowing conversions in the
// engine packages: float32(x), and T(x) where T is a type parameter whose
// type set contains float32. Widening (float64(x) of a float32) is exact
// and allowed; narrowing loses bits and must happen only at the documented
// conversion sites. Conversions of math.Inf results are exempt: ±Inf is
// exactly representable in float32 and the idiom is how sentinel bounds are
// seeded. Untyped constants never had a float64 identity to lose.
var PrecisionAnalyzer = &Analyzer{
	Name: "precision",
	Doc: "no float64→float32 narrowing conversions (float32(x), or T(x) for a type " +
		"parameter T that may be float32) in the engine packages outside blessed " +
		"call sites (docs/kernels.md precision contract)",
	Run: runPrecision,
}

func runPrecision(pass *Pass) error {
	if !precisionScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true // a real call, not a conversion
			}
			if !mayBeFloat32(tv.Type) {
				return true
			}
			argType := pass.TypesInfo.TypeOf(call.Args[0])
			if argType == nil || !isFloatKind(argType, types.Float64) {
				return true
			}
			if isMathInfCall(pass, call.Args[0]) {
				return true // ±Inf narrows exactly
			}
			if isUntypedConst(pass, call.Args[0]) {
				return true // no float64 identity to lose
			}
			pass.Reportf(call.Pos(),
				"float64→float32 narrowing conversion: bounds and accumulators stay float64 (docs/kernels.md); narrow only at a blessed site with a kmlint:ignore reason")
			return true
		})
	}
	return nil
}

// isFloatKind reports whether t's underlying type is the given float kind.
func isFloatKind(t types.Type, kind types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == kind
}

// mayBeFloat32 reports whether a conversion to t can narrow to float32: t
// is float32, or a type parameter whose type set contains float32.
func mayBeFloat32(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		return typeSetHas(tp.Constraint(), types.Float32)
	}
	return isFloatKind(t, types.Float32)
}

// typeSetHas reports whether the constraint's type set contains a type of
// the given float kind, looking through unions, ~terms and embedded
// (possibly named) interfaces.
func typeSetHas(constraint types.Type, kind types.BasicKind) bool {
	iface, ok := constraint.Underlying().(*types.Interface)
	if !ok {
		return isFloatKind(constraint, kind)
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				if typeSetHas(e.Term(j).Type(), kind) {
					return true
				}
			}
		default:
			if typeSetHas(e, kind) {
				return true
			}
		}
	}
	return false
}

// isUntypedConst reports whether e is an untyped constant expression:
// literals, untyped named constants and operators over them. go/types
// records such an operand of T(x), for a type parameter T, at its default
// type float64, so the type alone cannot tell it from a float64 value.
func isUntypedConst(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		c, ok := pass.TypesInfo.Uses[e].(*types.Const)
		if !ok {
			return false
		}
		b, ok := c.Type().(*types.Basic)
		return ok && b.Info()&types.IsUntyped != 0
	case *ast.UnaryExpr:
		return isUntypedConst(pass, e.X)
	case *ast.BinaryExpr:
		return isUntypedConst(pass, e.X) && isUntypedConst(pass, e.Y)
	}
	return false
}

// isMathInfCall reports whether e is (possibly parenthesized) math.Inf(...).
func isMathInfCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "math" && obj.Name() == "Inf"
}
