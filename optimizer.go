package kmeansll

import (
	"fmt"
	"strconv"
	"strings"

	"kmeansll/internal/lloyd"
)

// Optimizer selects the refinement stage Cluster runs after seeding. The
// paper's structural point is that seeding and refinement are separable:
// any seeding (Config.Init) composes with any Optimizer, over any data
// source (in-memory points, a .kmd dataset, a shard manifest, or the
// streaming coreset). The implementations are Lloyd (default), MiniBatch,
// Trimmed and Spherical; the interface is sealed — variants live next to the
// engine kernels, so a new one is a one-file addition here, not a fork of
// the fit pipeline.
//
// Every implementation round-trips through OptimizerSpec (the JSON form the
// kmserved fit API accepts) and ParseOptimizer (the CLI flag form), so the
// same spec selects the same fit from the library, kmcluster, kmstream and
// a kmserved fit job.
type Optimizer interface {
	// String returns the canonical flag form, e.g. "lloyd:elkan",
	// "minibatch:b=512,iters=100", "trimmed:0.05", "spherical".
	String() string
	// Spec returns the JSON-serializable form.
	Spec() OptimizerSpec

	// lower validates the variant and maps it onto the engine. Unexported:
	// the set of optimizers is closed over the engine variants.
	lower() (lloyd.Opt, error)
}

// Lloyd is exact Lloyd iteration — the default Optimizer. All kernels are
// exact (same fixed point); they differ only in speed and memory, see
// Kernel for which is fastest where.
type Lloyd struct {
	Kernel Kernel
}

func (o Lloyd) String() string { return "lloyd:" + o.Kernel.String() }

// Spec returns the JSON form of the optimizer.
func (o Lloyd) Spec() OptimizerSpec {
	return OptimizerSpec{Type: "lloyd", Kernel: o.Kernel.String()}
}

func (o Lloyd) lower() (lloyd.Opt, error) {
	switch o.Kernel {
	case NaiveKernel:
		return lloyd.Opt{Kind: lloyd.OptLloyd, Kernel: lloyd.Naive}, nil
	case ElkanKernel:
		return lloyd.Opt{Kind: lloyd.OptLloyd, Kernel: lloyd.Elkan}, nil
	case HamerlyKernel:
		return lloyd.Opt{Kind: lloyd.OptLloyd, Kernel: lloyd.Hamerly}, nil
	default:
		return lloyd.Opt{}, fmt.Errorf("kmeansll: unknown Kernel %d", int(o.Kernel))
	}
}

// MiniBatch is Sculley's mini-batch k-means (the paper's [31]): each of
// Iters steps samples BatchSize points and nudges only their centers, so a
// fit costs O(Iters·BatchSize·k·d) instead of O(iters·n·k·d) — the
// throughput choice when n is large and an approximate refinement is
// acceptable. The final cost and assignment are still exact (one full pass
// at the end). Converged is always false on the resulting Model: the
// variant runs a fixed budget and tests no fixed point.
type MiniBatch struct {
	BatchSize int // B; 0 means 10·k
	Iters     int // steps; 0 defers to Config.MaxIter, then 100
}

func (o MiniBatch) String() string {
	switch {
	case o.BatchSize == 0 && o.Iters == 0:
		return "minibatch"
	case o.BatchSize == 0:
		return fmt.Sprintf("minibatch:iters=%d", o.Iters)
	case o.Iters == 0:
		return fmt.Sprintf("minibatch:b=%d", o.BatchSize)
	default:
		return fmt.Sprintf("minibatch:b=%d,iters=%d", o.BatchSize, o.Iters)
	}
}

// Spec returns the JSON form of the optimizer.
func (o MiniBatch) Spec() OptimizerSpec {
	return OptimizerSpec{Type: "minibatch", BatchSize: o.BatchSize, Iters: o.Iters}
}

func (o MiniBatch) lower() (lloyd.Opt, error) {
	op := lloyd.Opt{Kind: lloyd.OptMiniBatch, BatchSize: o.BatchSize, Batches: o.Iters}
	if err := op.Validate(); err != nil {
		return lloyd.Opt{}, fmt.Errorf("kmeansll: %w", err)
	}
	return op, nil
}

// Trimmed is trimmed k-means: each iteration excludes the Fraction of points
// with the largest current cost from the centroid update, so far-away noise
// cannot drag centers. The fitted Model reports the final exclusion set in
// Outliers and the cost over kept points in TrimmedCost; Cost stays the
// all-points cost, comparable to plain Lloyd.
type Trimmed struct {
	Fraction float64 // fraction excluded per iteration, in [0, 1)
}

func (o Trimmed) String() string { return "trimmed:" + strconv.FormatFloat(o.Fraction, 'g', -1, 64) }

// Spec returns the JSON form of the optimizer.
func (o Trimmed) Spec() OptimizerSpec { return OptimizerSpec{Type: "trimmed", Fraction: o.Fraction} }

func (o Trimmed) lower() (lloyd.Opt, error) {
	op := lloyd.Opt{Kind: lloyd.OptTrimmed, TrimFraction: o.Fraction}
	if err := op.Validate(); err != nil {
		return lloyd.Opt{}, fmt.Errorf("kmeansll: %w", err)
	}
	return op, nil
}

// Spherical is spherical k-means: points and centers live on the unit sphere
// and similarity is cosine — the standard variant for text/TF-IDF workloads.
// The fit runs over a row-normalized private copy of the data (the input is
// never mutated; seeding also sees the normalized copy), and rejects
// datasets containing zero rows. The fitted Model's centers are unit-norm
// and its Cost is the Euclidean cost on the normalized data.
type Spherical struct{}

func (Spherical) String() string { return "spherical" }

// Spec returns the JSON form of the optimizer.
func (Spherical) Spec() OptimizerSpec { return OptimizerSpec{Type: "spherical"} }

func (Spherical) lower() (lloyd.Opt, error) { return lloyd.Opt{Kind: lloyd.OptSpherical}, nil }

// OptimizerSpec is the serializable form of an Optimizer — the
// `"optimizer": {...}` object of a kmserved fit request. Exactly the fields
// of the named type are meaningful; the rest must be zero.
type OptimizerSpec struct {
	// Type is "lloyd" (default when empty), "minibatch", "trimmed" or
	// "spherical".
	Type string `json:"type"`
	// Kernel is lloyd's assignment kernel: "naive" (default), "elkan" or
	// "hamerly".
	Kernel string `json:"kernel,omitempty"`
	// BatchSize and Iters size minibatch (0 = defaults 10·k and 100).
	BatchSize int `json:"batch_size,omitempty"`
	Iters     int `json:"iters,omitempty"`
	// Fraction is trimmed's excluded fraction, in [0, 1).
	Fraction float64 `json:"fraction,omitempty"`
}

// Optimizer materializes the spec, validating both the type and that no
// foreign knob is set (a trimmed spec carrying batch_size is a mistake worth
// rejecting at submit time, not a field to ignore).
func (s OptimizerSpec) Optimizer() (Optimizer, error) {
	reject := func(field string) error {
		return fmt.Errorf("kmeansll: optimizer %q does not take %s", s.Type, field)
	}
	switch strings.ToLower(s.Type) {
	case "", "lloyd":
		if s.BatchSize != 0 || s.Iters != 0 {
			return nil, reject("batch_size/iters")
		}
		if s.Fraction != 0 {
			return nil, reject("fraction")
		}
		var k Kernel
		switch strings.ToLower(s.Kernel) {
		case "", "naive":
			k = NaiveKernel
		case "elkan":
			k = ElkanKernel
		case "hamerly":
			k = HamerlyKernel
		default:
			return nil, fmt.Errorf("kmeansll: unknown kernel %q (want naive, elkan or hamerly)", s.Kernel)
		}
		return Lloyd{Kernel: k}, nil
	case "minibatch":
		if s.Kernel != "" {
			return nil, reject("kernel")
		}
		if s.Fraction != 0 {
			return nil, reject("fraction")
		}
		if s.BatchSize < 0 || s.Iters < 0 {
			return nil, fmt.Errorf("kmeansll: minibatch batch_size/iters must be ≥ 0")
		}
		return MiniBatch{BatchSize: s.BatchSize, Iters: s.Iters}, nil
	case "trimmed":
		if s.Kernel != "" {
			return nil, reject("kernel")
		}
		if s.BatchSize != 0 || s.Iters != 0 {
			return nil, reject("batch_size/iters")
		}
		// The negated form also rejects NaN, which would otherwise sail
		// through both comparisons and panic deep in the trim loop.
		if !(s.Fraction >= 0 && s.Fraction < 1) {
			return nil, fmt.Errorf("kmeansll: trimmed fraction %v outside [0, 1)", s.Fraction)
		}
		return Trimmed{Fraction: s.Fraction}, nil
	case "spherical":
		if s.Kernel != "" {
			return nil, reject("kernel")
		}
		if s.BatchSize != 0 || s.Iters != 0 {
			return nil, reject("batch_size/iters")
		}
		if s.Fraction != 0 {
			return nil, reject("fraction")
		}
		return Spherical{}, nil
	default:
		return nil, fmt.Errorf("kmeansll: unknown optimizer %q (want lloyd, minibatch, trimmed or spherical)", s.Type)
	}
}

// ParseOptimizer parses the flag form of an optimizer spec, as accepted by
// kmcluster/kmstream -optimizer:
//
//	lloyd | lloyd:elkan | lloyd:hamerly
//	minibatch | minibatch:b=512,iters=200
//	trimmed:0.05
//	spherical
//
// The forms are exactly Optimizer.String()'s output, so specs round-trip.
func ParseOptimizer(s string) (Optimizer, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(s), ":")
	spec := OptimizerSpec{Type: strings.ToLower(name)}
	switch spec.Type {
	case "", "lloyd":
		spec.Type = "lloyd"
		spec.Kernel = arg
	case "minibatch":
		for _, kv := range strings.Split(arg, ",") {
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			n, err := strconv.Atoi(val)
			if !ok || err != nil || n < 0 {
				return nil, fmt.Errorf("kmeansll: bad minibatch option %q (want b=N or iters=N)", kv)
			}
			switch key {
			case "b", "batch", "batch_size":
				spec.BatchSize = n
			case "iters":
				spec.Iters = n
			default:
				return nil, fmt.Errorf("kmeansll: unknown minibatch option %q (want b or iters)", key)
			}
		}
	case "trimmed":
		if !hasArg {
			return nil, fmt.Errorf("kmeansll: trimmed needs a fraction, e.g. trimmed:0.05")
		}
		f, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return nil, fmt.Errorf("kmeansll: bad trimmed fraction %q", arg)
		}
		spec.Fraction = f
	case "spherical":
		if hasArg {
			return nil, fmt.Errorf("kmeansll: spherical takes no options")
		}
	default:
		return nil, fmt.Errorf("kmeansll: unknown optimizer %q (want lloyd, minibatch, trimmed or spherical)", name)
	}
	return spec.Optimizer()
}

// OptimizerOrDefault returns c.Optimizer, or Lloyd{} when no Optimizer is
// set. Serving layers use it to record what a fit will actually run.
func (c Config) OptimizerOrDefault() Optimizer {
	if c.Optimizer != nil {
		return c.Optimizer
	}
	return Lloyd{}
}
