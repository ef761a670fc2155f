package geom

import (
	"math"
	"sync"
	"testing"
)

// tierTestData builds a deterministic ragged workload: n points × k centers
// at dimension d, values in roughly unit scale (the contract's domain).
func tierTestData(n, k, d int) (*Mat[float32], *Mat[float32]) {
	state := uint64(d)*2654435761 + 12345
	next := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(int32(state>>33)) / float32(1<<31) // [-1, 1)
	}
	pts := NewMat[float32](n, d)
	for i := range pts.Data {
		pts.Data[i] = next()
	}
	centers := NewMat[float32](k, d)
	for i := range centers.Data {
		centers.Data[i] = next()
	}
	return pts, centers
}

// sqDistWide is the exact float32 reference: the (a−b)² sum with every term
// widened into a float64 accumulator.
func sqDistWide(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// TestF32TierMatrix forces every kernel tier available in this binary over
// dims 1–128 with ragged point/center counts and asserts (a) within a tier,
// results are bit-identical regardless of how the rows are chunked across
// goroutines, and (b) across tiers, every chosen center is within the
// tolerance contract of the exact float64-widened reference.
func TestF32TierMatrix(t *testing.T) {
	defer SetF32Tier(ActiveF32Tier())
	const n = 137 // ragged: 128 + 9 point rows
	tiers := F32Tiers()
	if testing.Short() && len(tiers) > 1 {
		tiers = tiers[:2]
	}
	for d := 1; d <= 128; d++ {
		k := centerTile[float32](d) + 3 // ragged: one center tile + 3
		pts, centers := tierTestData(n, k, d)
		cNorms := RowSqNorms(centers, nil)

		// Exact reference: widened (a−b)² sums.
		refD2 := make([]float64, n)
		for i := 0; i < n; i++ {
			best := math.Inf(1)
			for c := 0; c < k; c++ {
				if v := sqDistWide(pts.Row(i), centers.Row(c)); v < best {
					best = v
				}
			}
			refD2[i] = best
		}

		for _, tier := range tiers {
			if !SetF32Tier(tier) {
				t.Fatalf("SetF32Tier(%v) failed though listed available", tier)
			}
			// Single-call baseline for this tier.
			base := make([]float32, n)
			baseIdx := make([]int32, n)
			sc := GetScratch[float32]()
			NearestBlocked(pts, centers, cNorms, baseIdx, base, sc)
			sc.Release()

			// Same rows re-chunked at awkward boundaries, computed
			// concurrently: must match the single call bit for bit.
			for _, bounds := range [][]int{{0, 1, n}, {0, 63, 64, 100, n}, {0, 2, 5, 17, 70, 129, n}} {
				got := make([]float32, n)
				gotIdx := make([]int32, n)
				var wg sync.WaitGroup
				for bi := 0; bi+1 < len(bounds); bi++ {
					lo, hi := bounds[bi], bounds[bi+1]
					wg.Add(1)
					go func() {
						defer wg.Done()
						sc := GetScratch[float32]()
						VisitNearest(pts, centers, cNorms, lo, hi, sc, func(i int, idx int32, d2 float64) {
							got[i] = float32(d2)
							gotIdx[i] = idx
						})
						sc.Release()
					}()
				}
				wg.Wait()
				for i := 0; i < n; i++ {
					if math.Float32bits(got[i]) != math.Float32bits(base[i]) || gotIdx[i] != baseIdx[i] {
						t.Fatalf("tier %v d=%d chunks %v: point %d got (%v, %d) want (%v, %d)",
							tier, d, bounds, i, got[i], gotIdx[i], base[i], baseIdx[i])
					}
				}
			}

			// Cross-tier contract: the chosen center's exact distance must be
			// within relative tolerance of the exact minimum.
			for i := 0; i < n; i++ {
				exact := sqDistWide(pts.Row(i), centers.Row(int(baseIdx[i])))
				if exact > refD2[i]+1e-4*(1+refD2[i]) {
					t.Fatalf("tier %v d=%d: point %d chose center %d with exact d²=%g, min=%g",
						tier, d, i, baseIdx[i], exact, refD2[i])
				}
				if diff := math.Abs(float64(base[i]) - refD2[i]); diff > 1e-4*(1+refD2[i]) {
					t.Fatalf("tier %v d=%d: point %d d²=%v, reference %g (diff %g)",
						tier, d, i, base[i], refD2[i], diff)
				}
			}
		}
	}
}

// TestF32TierKnobs covers the tier control surface: forcing unavailable
// tiers fails, and the available-tier list starts with pure Go.
func TestF32TierKnobs(t *testing.T) {
	orig := ActiveF32Tier()
	defer SetF32Tier(orig)

	tiers := F32Tiers()
	if len(tiers) == 0 || tiers[0] != F32TierPureGo {
		t.Fatalf("F32Tiers() = %v, want pure Go first", tiers)
	}
	avail := map[F32Tier]bool{}
	for _, tier := range tiers {
		avail[tier] = true
		if !SetF32Tier(tier) {
			t.Errorf("SetF32Tier(%v) = false for available tier", tier)
		}
		if got := ActiveF32Tier(); got != tier {
			t.Errorf("ActiveF32Tier() = %v after SetF32Tier(%v)", got, tier)
		}
	}
	for _, tier := range []F32Tier{F32TierSSE2, F32TierNEON, F32TierAVX2} {
		if !avail[tier] {
			if SetF32Tier(tier) {
				t.Errorf("SetF32Tier(%v) succeeded though unavailable", tier)
			}
		}
	}
}
