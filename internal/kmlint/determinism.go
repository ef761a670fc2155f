package kmlint

import (
	"go/ast"
	"go/types"
)

// determinismScope lists the packages whose fit/reduce paths promise
// bit-identical results for a given seed and worker count — the property
// every distributed-vs-in-process parity test in the repo rests on.
// Wall-clock reads and map-order iteration are banned here; genuinely
// order-insensitive uses (shard janitors, checkpoint timestamps) carry a
// //kmlint:ignore determinism <reason> suppression at the site.
var determinismScope = map[string]bool{
	"kmeansll/internal/core":   true,
	"kmeansll/internal/seed":   true,
	"kmeansll/internal/lloyd":  true,
	"kmeansll/internal/mrkm":   true,
	"kmeansll/internal/distkm": true,
	"kmeansll/internal/rng":    true,
}

// deterministicRandFuncs are the math/rand identifiers that are allowed in
// scope: constructors over an explicit source are deterministic, it is the
// package-level functions (which draw from the shared, randomly seeded
// global source) that break replay.
var deterministicRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// DeterminismAnalyzer enforces the determinism contract on the fit/reduce
// path packages: no global (unseeded) math/rand, no wall-clock reads
// (time.Now/Since/Until), and no iteration over maps — map order would leak
// schedule-dependent nondeterminism into reduced or user-visible output.
// The counter-based internal/rng and explicit ordering slices are the
// blessed alternatives; see docs/static-analysis.md.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "deterministic fit/reduce packages must not use global math/rand, " +
		"wall-clock time, or map-order iteration",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !determinismScope[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkNondeterministicCall(pass, n)
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(),
							"iteration over map %s: map order is nondeterministic; iterate an explicit order slice instead",
							types.TypeString(t, types.RelativeTo(pass.Pkg)))
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkNondeterministicCall flags selector uses of banned stdlib functions.
// It keys on the resolved object, not the source text, so aliased imports
// are still caught.
func checkNondeterministicCall(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn over an explicit source) are fine
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !deterministicRandFuncs[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s draws from the globally seeded source; use the counter-based internal/rng (or a rand.New over an explicit Source)",
				obj.Pkg().Name(), obj.Name())
		}
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock inside a deterministic fit/reduce path", obj.Name())
		}
	}
}
