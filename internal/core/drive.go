package core

import (
	"errors"
	"fmt"
	"math"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// Passes is the part of Algorithm 2 that touches the points: every pass
// over them, in one realization's partition, transport and reduction order.
// Drive calls it for the in-process chunks (Init, and mrkm.Init through it)
// and the RPC fan-outs (distkm's Coordinator). Only the networked
// realization's methods can fail.
type Passes interface {
	// Point returns point i widened to float64: Step 1's first center.
	Point(i int) ([]float64, error)
	// Fold folds candidate rows [lo, hi) into every point's weighted D²
	// cache (+Inf before the first fold, which has lo = 0) and returns φ,
	// the cache's sum. Beside each entry it keeps the candidate row that
	// last lowered it (geom.FoldNearest), so after the last fold every
	// point knows its nearest candidate.
	Fold(cands *geom.Matrix, lo, hi int) (float64, error)
	// Sample returns the round's picks as rows: Bernoulli picks in point
	// order, ExactL picks in draw order. r is the driver's RNG; only the
	// in-process ExactL draws from it.
	Sample(round int, phi float64, r *rng.Rng) (*geom.Matrix, error)
	// Weights is Step 7: each candidate's total weight of the points it is
	// nearest to, for the first candidates rows, all of them folded. It
	// reads the nearest rows the folds recorded and computes no distance.
	Weights(candidates int) ([]float64, error)
	// Cost returns φ_X(centers).
	Cost(centers *geom.Matrix) (float64, error)
}

// Round is Drive's state after Step 2 (Round 0) or after sampling round
// Round: what a checkpoint holds to continue a run bit-identically.
type Round struct {
	// Round is the number of sampling rounds completed.
	Round int
	// Cands is the candidate set C. Starts[j] is the first row of the j-th
	// group folded into the D² caches; replaying the groups in order rebuilds
	// the caches and their nearest rows bit for bit, because the kernel a
	// fold runs depends on how many rows arrive together.
	Cands  *geom.Matrix
	Starts []int
	// Phi is φ_X(C); Psi and PhiTrace are as in Stats.
	Phi      float64
	Psi      float64
	PhiTrace []float64
	// Rng is the driver's stream, Step 1 consumed and Step 8 not yet.
	Rng *rng.Rng
}

// Drive runs Algorithm 2 over the n points p passes over; weight is their
// weight vector, nil when unweighted. It starts at Step 1, or, when from is
// non-nil, continues from that checkpointed round: the logged fold groups
// are replayed through Fold, which rebuilds the caches and their nearest
// rows, and φ must come back with the checkpointed bits. after, when
// non-nil, is called after Step 2 and after every round.
//
// A round that samples nothing folds nothing, and φ keeps its bits: a fold
// of no rows would only re-sum the same cache in the same order as the fold
// before it. Step 8 runs here, sequentially, on the weighted candidates in
// float64.
func Drive(p Passes, cfg Config, n int, weight []float64, from *Round, after func(*Round) error) (*geom.Matrix, Stats, error) {
	var stats Stats
	switch {
	case cfg.K <= 0:
		return nil, stats, errors.New("core: Config.K must be positive")
	case n == 0:
		return nil, stats, errors.New("core: empty dataset")
	case cfg.K >= n:
		// Every point is a center.
		all := &geom.Matrix{}
		for i := 0; i < n; i++ {
			pt, err := p.Point(i)
			if err != nil {
				return nil, stats, err
			}
			all.AppendRow(pt)
		}
		stats.Candidates = n
		return all, stats, nil
	}
	ell, rounds := cfg.Schedule()
	if after == nil {
		after = func(*Round) error { return nil }
	}

	var st Round
	fold := func(lo, hi int) error {
		phi, err := p.Fold(st.Cands, lo, hi)
		if err != nil {
			return err
		}
		st.Phi = phi
		st.Starts = append(st.Starts, lo)
		stats.Passes++
		return nil
	}
	if from == nil {
		// Step 1: the first center, uniform (weight-proportional when
		// weighted).
		st.Rng = rng.New(cfg.Seed)
		var first int
		if weight == nil {
			first = st.Rng.Intn(n)
		} else {
			first = st.Rng.WeightedIndex(weight)
		}
		pt, err := p.Point(first)
		if err != nil {
			return nil, stats, err
		}
		// C grows to ~1 + r·ℓ rows; reserve once so the rounds never
		// reallocate it.
		st.Cands = &geom.Matrix{Cols: len(pt)}
		st.Cands.Reserve(min(n, 1+rounds*int(math.Ceil(ell))))
		st.Cands.AppendRow(pt)

		// Step 2: ψ ← φ_X(C).
		if err := fold(0, 1); err != nil {
			return nil, stats, err
		}
		st.Psi, st.PhiTrace = st.Phi, []float64{st.Phi}
		if err := after(&st); err != nil {
			return nil, stats, err
		}
	} else {
		st = Round{Round: from.Round, Cands: from.Cands, Psi: from.Psi, Rng: from.Rng,
			PhiTrace: append([]float64(nil), from.PhiTrace...)}
		if err := checkStarts(from.Starts, from.Cands.Rows); err != nil {
			return nil, stats, err
		}
		for j, lo := range from.Starts {
			hi := from.Cands.Rows
			if j+1 < len(from.Starts) {
				hi = from.Starts[j+1]
			}
			if lo < hi {
				if err := fold(lo, hi); err != nil {
					return nil, stats, err
				}
			}
		}
		if math.Float64bits(st.Phi) != math.Float64bits(from.Phi) {
			return nil, stats, fmt.Errorf("core: checkpoint does not match the data (phi %v, checkpointed %v)", st.Phi, from.Phi)
		}
	}

	// Steps 3–6: sample, then fold the picks into the caches.
	for st.Round < rounds && st.Phi > 0 {
		picks, err := p.Sample(st.Round, st.Phi, st.Rng)
		if err != nil {
			return nil, stats, err
		}
		stats.Rounds++
		stats.RoundCandidates = append(stats.RoundCandidates, picks.Rows)
		if picks.Rows > 0 {
			lo := st.Cands.Rows
			for i := 0; i < picks.Rows; i++ {
				st.Cands.AppendRow(picks.Row(i))
			}
			if err := fold(lo, st.Cands.Rows); err != nil {
				return nil, stats, err
			}
		}
		st.Round++
		st.PhiTrace = append(st.PhiTrace, st.Phi)
		if err := after(&st); err != nil {
			return nil, stats, err
		}
	}
	stats.Psi, stats.PhiTrace, stats.Candidates = st.Psi, st.PhiTrace, st.Cands.Rows

	// Step 7: weight each candidate by the points it serves.
	weights, err := p.Weights(st.Cands.Rows)
	if err != nil {
		return nil, stats, err
	}
	stats.Passes++

	// Step 8: recluster the weighted candidates down to K.
	final := recluster(st.Cands, weights, cfg, st.Rng)

	stats.SeedCost, err = p.Cost(final)
	if err != nil {
		return nil, stats, err
	}
	stats.Passes++
	return final, stats, nil
}

// checkStarts checks a checkpointed fold log before it is replayed: there
// is a candidate, the first group starts at row 0, and the starts never
// decrease or pass the last row.
func checkStarts(starts []int, rows int) error {
	if rows < 1 {
		return errors.New("core: checkpoint has no candidates")
	}
	if len(starts) == 0 || starts[0] != 0 {
		return errors.New("core: checkpoint has no fold group starting at row 0")
	}
	for j := 1; j < len(starts); j++ {
		if starts[j] < starts[j-1] || starts[j] > rows {
			return fmt.Errorf("core: checkpoint fold group %d starts at row %d", j, starts[j])
		}
	}
	return nil
}

// recluster is Step 8. Candidates that serve no point (weight 0) can still
// be valid centers, but weighted k-means++ would never pick them, so they
// are dropped; at least one is kept so the degenerate 1-candidate case
// works.
func recluster(cands *geom.Matrix, weights []float64, cfg Config, r *rng.Rng) *geom.Matrix {
	keep := make([]int, 0, cands.Rows)
	for i, w := range weights {
		if w > 0 {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 {
		keep = append(keep, 0)
		weights[0] = 1
	}
	cds := &geom.Dataset{X: geom.NewMatrix(len(keep), cands.Cols), Weight: make([]float64, len(keep))}
	for j, i := range keep {
		copy(cds.X.Row(j), cands.Row(i))
		cds.Weight[j] = weights[i]
	}

	switch cfg.Recluster {
	case ReclusterRandom:
		return seed.WeightedRandom(cds, cfg.K, r)
	case ReclusterKMeansPPLloyd:
		init := seed.KMeansPP(cds, cfg.K, r, 1)
		return lloyd.Run(cds, init, lloyd.Config{MaxIter: 20, Parallelism: 1}).Centers
	default:
		return seed.KMeansPP(cds, cfg.K, r, 1)
	}
}
