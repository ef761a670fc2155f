// MapReduce: run k-means|| and Lloyd as MapReduce jobs (§3.5 of the paper),
// printing the job/pass accounting the paper's scalability argument is
// stated in: a constant number of passes for k-means|| vs the k passes
// k-means++ would need. It then checks that the MapReduce seeding and Lloyd
// are the in-process core.Init's and lloyd.Run's at as many chunks as
// mappers, bit for bit, and exits non-zero if they are not.
//
// Run with: go run ./examples/mapreduce
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"kmeansll/internal/core"
	"kmeansll/internal/data"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/mrkm"
)

func main() {
	ds := data.KDDLike(data.KDDLikeConfig{N: 20000, Seed: 5})
	fmt.Printf("input: %d records x %d features\n", ds.N(), ds.Dim())

	const k, mappers = 50, 8
	cluster := mrkm.Config{Mappers: mappers}
	cfg := core.Config{K: k, L: 2 * k, Rounds: 5, Seed: 9, Parallelism: mappers}

	// Initialization: each sampling round is a sample job plus an
	// update-cost job; weighting is one more job; reclustering runs on the
	// driver because the candidate set is tiny.
	centers, stats := mrkm.Init(ds, cfg, cluster)
	fmt.Printf("\nk-means|| on MapReduce:\n")
	fmt.Printf("  MR jobs:          %d\n", stats.MRRounds)
	fmt.Printf("  candidates:       %d (vs %d passes k-means++ would need)\n", stats.Candidates, k)
	fmt.Printf("  psi (initial):    %.4g\n", stats.Psi)
	fmt.Printf("  phi after rounds: %.4g\n", stats.PhiTrace[len(stats.PhiTrace)-1])
	fmt.Printf("  seed cost:        %.4g\n", stats.SeedCost)

	// mrkm.Init is core.Init with one chunk per mapper, so the seeding must
	// match core.Init at Parallelism = mappers bit for bit: this guards the
	// Mappers → Parallelism mapping.
	want, wantStats := core.Init(ds, cfg)
	if !bitsEqual(centers.Data, want.Data) || !bitsEqual(stats.PhiTrace, wantStats.PhiTrace) ||
		!bitsEqual([]float64{stats.SeedCost}, []float64{wantStats.SeedCost}) {
		log.Fatalf("MapReduce seeding diverged from core.Init at Parallelism %d: centers, phi trace or seed cost differ", mappers)
	}
	fmt.Printf("  verified: centers, phi trace and seed cost bit-identical to core.Init at Parallelism %d\n", mappers)

	// Lloyd: one MR job per iteration.
	res, lstats := mrkm.Lloyd(ds, centers, 20, cluster)
	fmt.Printf("\nLloyd on MapReduce:\n")
	fmt.Printf("  MR jobs (iterations): %d, converged=%v\n", lstats.MRRounds, res.Converged)
	fmt.Printf("  final cost:           %.4g\n", res.Cost)

	// mrkm.Lloyd is lloyd.Run with one chunk per mapper: the same check.
	wantRes := lloyd.Run(ds, centers, lloyd.Config{MaxIter: 20, Parallelism: mappers})
	if !bitsEqual(res.Centers.Data, wantRes.Centers.Data) || !bitsEqual(res.CostTrace, wantRes.CostTrace) ||
		!bitsEqual([]float64{res.Cost}, []float64{wantRes.Cost}) || !slices.Equal(res.Assign, wantRes.Assign) {
		log.Fatalf("MapReduce Lloyd diverged from lloyd.Run at Parallelism %d: centers, cost trace, cost or assignments differ", mappers)
	}
	fmt.Printf("  verified: centers, cost trace, cost and assignments bit-identical to lloyd.Run at Parallelism %d\n", mappers)
}

// bitsEqual reports whether a and b hold the same float64s, bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
