package kmlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// dsioReaderPath is the package whose Reader hands out zero-copy views of
// read-only mmapped .kmd pages (docs/kmd-format.md).
const dsioReaderPath = "kmeansll/internal/dsio"

// aliasingMethods are Dataset/Matrix accessors whose results alias the
// backing storage; taint flows through them. Clone, ConvertSet, WidenSet,
// CopyRow and Subset allocate fresh storage and launder the taint — the
// "private copy" idiom lloyd.Prepare uses for Spherical is exactly such a
// copy.
var aliasingMethods = map[string]bool{
	"Row": true, "Point": true, "RowRange": true,
}

// knownMutators are functions that write through their slice/dataset
// argument in place. Passing an mmap-derived value to one is a write even
// though no index expression appears at the call site.
var knownMutators = map[[2]string]bool{
	{"kmeansll/internal/geom", "Scale"}:          true,
	{"kmeansll/internal/geom", "AddScaled"}:      true,
	{"kmeansll/internal/lloyd", "NormalizeRows"}: true,
}

// MmapWriteAnalyzer enforces the read-only mmap contract: datasets obtained
// from a dsio.Reader (Dataset, Dataset32) are zero-copy views of pages
// mapped PROT_READ-equivalent — writing through them faults at runtime on
// some platforms and silently corrupts shared state on the rest. Within
// each function it taints the Reader-derived values (through assignment,
// field selection, slicing, and the aliasing accessors Row/Point/RowRange)
// and reports element writes, copy-into, field mutation, and calls to known
// in-place mutators. Explicit copies (Clone, ConvertSet, WidenSet, Subset,
// CopyRow) clear the taint.
var MmapWriteAnalyzer = &Analyzer{
	Name: "mmapwrite",
	Doc: "no writes through datasets derived from a dsio.Reader — .kmd mmaps " +
		"are read-only; take a private copy first (docs/kmd-format.md)",
	Run: runMmapWrite,
}

func runMmapWrite(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFuncMmapWrites(pass, fn)
			return false // checkFuncMmapWrites walks nested literals itself
		})
	}
	return nil
}

// checkFuncMmapWrites runs the intraprocedural taint pass over one function
// body (function literals inside it included — they close over the same
// locals).
func checkFuncMmapWrites(pass *Pass, fn *ast.FuncDecl) {
	tainted := map[types.Object]bool{}
	// Fixed point: assignments can forward taint to variables used before
	// the assignment appears in source order.
	for {
		grew := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			asgn, ok := n.(*ast.AssignStmt)
			if !ok || len(asgn.Lhs) != len(asgn.Rhs) {
				return true
			}
			for i, rhs := range asgn.Rhs {
				if !exprTainted(pass, tainted, rhs) {
					continue
				}
				if id, ok := asgn.Lhs[i].(*ast.Ident); ok {
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil && !tainted[obj] {
						tainted[obj] = true
						grew = true
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportTaintedWrite(pass, tainted, lhs)
			}
		case *ast.IncDecStmt:
			reportTaintedWrite(pass, tainted, n.X)
		case *ast.CallExpr:
			checkMutatingCall(pass, tainted, n)
		}
		return true
	})
}

// exprTainted reports whether e evaluates to storage derived from a
// dsio.Reader dataset under the current taint set.
func exprTainted(pass *Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && tainted[obj]
	case *ast.SelectorExpr:
		// t.X, t.Data, t.Wts — any field of a tainted struct aliases it.
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return exprTainted(pass, tainted, e.X)
		}
		return false
	case *ast.IndexExpr:
		return exprTainted(pass, tainted, e.X)
	case *ast.SliceExpr:
		return exprTainted(pass, tainted, e.X)
	case *ast.StarExpr:
		return exprTainted(pass, tainted, e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && exprTainted(pass, tainted, e.X)
	case *ast.CallExpr:
		return callTainted(pass, tainted, e)
	}
	return false
}

// callTainted classifies call results: Reader.Dataset/Dataset32 seed the
// taint, aliasing accessors forward it, everything else (including the
// copying constructors) clears it.
func callTainted(pass *Pass, tainted map[types.Object]bool, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	if isDsioReader(sig.Recv().Type()) && (fn.Name() == "Dataset" || fn.Name() == "Dataset32") {
		return true
	}
	if aliasingMethods[fn.Name()] {
		return exprTainted(pass, tainted, sel.X)
	}
	return false
}

// isDsioReader reports whether t is dsio.Reader or a pointer to it.
func isDsioReader(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == dsioReaderPath && obj.Name() == "Reader"
}

// reportTaintedWrite flags an assignment target that stores into
// mmap-derived memory: an element write t[i] = v, or a field write
// t.Field = v on a tainted struct/pointer.
func reportTaintedWrite(pass *Pass, tainted map[types.Object]bool, lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		if exprTainted(pass, tainted, lhs.X) {
			pass.Reportf(lhs.Pos(),
				"write into a dataset derived from a dsio.Reader: .kmd mmaps are read-only — take a private copy (Clone/ConvertSet) first")
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[lhs]; ok && sel.Kind() == types.FieldVal &&
			exprTainted(pass, tainted, lhs.X) {
			pass.Reportf(lhs.Pos(),
				"field write on a dataset derived from a dsio.Reader: the cached view is shared — mutate a private copy instead")
		}
	case *ast.StarExpr:
		if exprTainted(pass, tainted, lhs.X) {
			pass.Reportf(lhs.Pos(),
				"write through a pointer derived from a dsio.Reader dataset: .kmd mmaps are read-only")
		}
	}
}

// checkMutatingCall flags copy(dst, ...) with a tainted dst and calls to
// the known in-place mutators with a tainted argument.
func checkMutatingCall(pass *Pass, tainted map[types.Object]bool, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
			if exprTainted(pass, tainted, call.Args[0]) {
				pass.Reportf(call.Pos(),
					"copy into a dataset derived from a dsio.Reader: .kmd mmaps are read-only")
			}
			return
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if !knownMutators[[2]string{obj.Pkg().Path(), obj.Name()}] {
		return
	}
	for _, arg := range call.Args {
		if exprTainted(pass, tainted, arg) {
			pass.Reportf(call.Pos(),
				"%s.%s mutates its argument in place, and the argument derives from a dsio.Reader dataset — normalize/scale a private copy instead",
				obj.Pkg().Name(), obj.Name())
			return
		}
	}
}
