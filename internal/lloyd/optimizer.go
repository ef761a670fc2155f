package lloyd

import (
	"fmt"

	"kmeansll/internal/geom"
)

// OptKind enumerates the refinement variants the engine can run after
// seeding. The paper's structural point — seeding and refinement are
// separable stages — is what makes this a closed set of interchangeable
// local-search phases over one seeding family.
type OptKind int

const (
	// OptLloyd is exact Lloyd iteration (Opt.Kernel picks the assignment
	// implementation). The zero value, so Opt{} refines like lloyd.Run.
	OptLloyd OptKind = iota
	// OptMiniBatch is Sculley's mini-batch k-means ([31] in the paper).
	OptMiniBatch
	// OptTrimmed is trimmed k-means (outlier-robust Lloyd).
	OptTrimmed
	// OptSpherical is spherical k-means (cosine objective on unit vectors).
	OptSpherical
)

// Opt is the engine-level optimizer description: which refinement variant to
// run and its variant-specific knobs. The shared run parameters (MaxIter,
// Parallelism) travel separately in Config so one Opt value can be reused
// across runs. The public kmeansll.Optimizer types lower to this.
type Opt struct {
	Kind OptKind
	// Kernel is OptLloyd's assignment implementation, the engine's one
	// kernel selector. The other variants ignore it: Trimmed and Spherical
	// scan as the Naive kernel does.
	Kernel Method
	// BatchSize is OptMiniBatch's B (0 = 10·k).
	BatchSize int
	// Batches is OptMiniBatch's step count (0 defers to the run config's
	// MaxIter, then 100).
	Batches int
	// TrimFraction is OptTrimmed's excluded fraction, in [0, 1).
	TrimFraction float64
}

// RefineResult is Result plus the variant-specific extras; fields beyond the
// embedded Result are populated only by the variant that defines them.
type RefineResult struct {
	Result
	// Outliers holds the point indices OptTrimmed excluded in its final
	// iteration, sorted ascending.
	Outliers []int
	// TrimmedCost is OptTrimmed's final cost over the kept points only.
	TrimmedCost float64
	// Cohesion is OptSpherical's objective Σ wᵢ·cos(xᵢ, c) (maximize).
	Cohesion float64
}

// Validate rejects out-of-range variant knobs with a caller-facing error.
func (o Opt) Validate() error {
	switch o.Kind {
	case OptLloyd:
		switch o.Kernel {
		case Naive, Elkan, Hamerly:
		default:
			return fmt.Errorf("lloyd: unknown kernel %d", int(o.Kernel))
		}
	case OptMiniBatch:
		if o.BatchSize < 0 {
			return fmt.Errorf("lloyd: mini-batch size %d must be ≥ 0", o.BatchSize)
		}
		if o.Batches < 0 {
			return fmt.Errorf("lloyd: mini-batch step count %d must be ≥ 0", o.Batches)
		}
	case OptTrimmed:
		// Negated so NaN is rejected too, not just out-of-range values.
		if !(o.TrimFraction >= 0 && o.TrimFraction < 1) {
			return fmt.Errorf("lloyd: trim fraction %v outside [0, 1)", o.TrimFraction)
		}
	case OptSpherical:
	default:
		return fmt.Errorf("lloyd: unknown optimizer kind %d", int(o.Kind))
	}
	return nil
}

// Prepare returns the dataset the optimizer fits over. Every variant except
// OptSpherical fits the input as-is; OptSpherical fits a row-normalized
// private copy (the input — which may be a read-only mmap — is never
// mutated), and rejects datasets containing zero rows, which have no
// direction to cluster.
func Prepare[T geom.Float](o Opt, ds *geom.Set[T]) (*geom.Set[T], error) {
	if o.Kind != OptSpherical {
		return ds, nil
	}
	w := ds.Weight
	if w != nil {
		w = append([]float64(nil), w...)
	}
	norm := &geom.Set[T]{X: ds.X.Clone(), Weight: w}
	if zeros := NormalizeRows(norm); zeros > 0 {
		return nil, fmt.Errorf("spherical optimizer: %d zero-norm row(s) cannot be normalized", zeros)
	}
	return norm, nil
}

// Refine runs the selected refinement variant from init (not modified) over
// a dataset already passed through Prepare, and is the one place a Passes
// backend is picked: the in-process chunks for OptLloyd's Naive kernel,
// bounded for its Elkan and Hamerly kernels (accel.go), trimmed and sphere
// for OptTrimmed and OptSpherical. Drive runs each, so every full-pass
// variant shares its update, empty-cluster reseed, stop rule and final
// pass. OptMiniBatch makes no full pass and runs MiniBatch. cfg carries the
// shared run parameters; seed drives OptMiniBatch's batch sampling. It
// panics on an Opt that Validate rejects, and on init empty or wider than
// the data.
func Refine[T geom.Float](o Opt, ds *geom.Set[T], init *geom.Matrix, cfg Config, seed uint64) RefineResult {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	if init.Rows == 0 {
		panic("lloyd: no initial centers")
	}
	if init.Cols != ds.Dim() {
		panic(fmt.Sprintf("lloyd: center dim %d != data dim %d", init.Cols, ds.Dim()))
	}
	ch := chunks[T]{ds: ds, parallelism: cfg.Parallelism}
	drive := func(p Passes) Result {
		res, _ := Drive(p, Result{Centers: init}, cfg.MaxIter, nil)
		return res
	}
	switch o.Kind {
	case OptMiniBatch:
		iters := o.Batches
		if iters == 0 && cfg.MaxIter > 0 {
			// The shared iteration cap is the step budget when the variant
			// does not pin its own: -max-iter and config.max_iter must mean
			// something for mini-batch, not be silently dropped.
			iters = cfg.MaxIter
		}
		res := MiniBatch(ds, init, MiniBatchConfig{
			BatchSize: o.BatchSize, Iters: iters,
			Seed: seed, Parallelism: cfg.Parallelism,
		})
		return RefineResult{Result: res}
	case OptTrimmed:
		tr := &trimmed[T]{chunks: ch, trim: int(o.TrimFraction * float64(ds.N()))}
		return RefineResult{Result: drive(tr), Outliers: tr.outliers, TrimmedCost: tr.trimmedCost}
	case OptSpherical:
		res := drive(&sphere[T]{chunks: ch})
		// The returned centers are the directions the final pass scanned,
		// and on unit vectors cos(x, c) = 1 − ‖x−c‖²/2.
		normalize(res.Centers)
		return RefineResult{Result: res, Cohesion: ds.TotalWeight() - res.Cost/2}
	}
	if o.Kernel == Naive {
		return RefineResult{Result: drive(&ch)}
	}
	return RefineResult{Result: drive(&bounded[T]{chunks: ch, elkan: o.Kernel == Elkan})}
}
