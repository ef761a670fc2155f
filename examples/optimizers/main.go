// Optimizers: one seeding family × four refinement variants, composed
// through kmeansll.Config.Optimizer. The paper's structural observation is
// that seeding and refinement are separable stages; this example fits the
// same k-means||-seeded workload with exact Lloyd, mini-batch (Sculley, the
// paper's [31]), trimmed (outlier-robust), and spherical (cosine) k-means —
// changing nothing but the Optimizer value. The same specs drive kmcluster
// -optimizer, kmstream -optimizer, and kmserved's {"optimizer": {...}} fit
// jobs.
package main

import (
	"fmt"

	"kmeansll"
	"kmeansll/internal/data"
)

func main() {
	// A 20k-point Gaussian mixture plus 1% scattered far-away junk — enough
	// noise that the refinement choice visibly matters.
	const k = 15
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: 20000, D: 12, K: k, R: 40, Seed: 5})
	points := make([][]float64, 0, ds.N()+ds.N()/100)
	for i := 0; i < ds.N(); i++ {
		points = append(points, ds.Point(i))
	}
	for i := 0; i < ds.N()/100; i++ {
		junk := make([]float64, ds.Dim())
		junk[i%ds.Dim()] = 4000 + 10*float64(i)
		points = append(points, junk)
	}

	fmt.Printf("workload: %d points x %d dims (%d of them planted junk), k=%d\n\n",
		len(points), ds.Dim(), len(points)-ds.N(), k)

	for _, opt := range []kmeansll.Optimizer{
		kmeansll.Lloyd{}, // exact, to convergence
		kmeansll.Lloyd{Kernel: kmeansll.ElkanKernel},   // same fixed point; faster on the Go tile (docs/kernels.md)
		kmeansll.MiniBatch{BatchSize: 512, Iters: 150}, // sampled steps, fixed budget
		kmeansll.Trimmed{Fraction: 0.01},               // junk excluded per iteration
		kmeansll.Spherical{},                           // cosine objective, unit-norm centers
	} {
		model, err := kmeansll.Cluster(points, kmeansll.Config{
			K: k, Seed: 1, MaxIter: 150, Optimizer: opt,
		})
		if err != nil {
			panic(err)
		}
		extra := ""
		if model.Outliers != nil {
			extra = fmt.Sprintf("  [flagged %d outliers, trimmed cost %.4g]",
				len(model.Outliers), model.TrimmedCost)
		}
		fmt.Printf("%-28s cost %.6g  iters %3d  converged %-5v%s\n",
			opt, model.Cost, model.Iters, model.Converged, extra)
	}

	fmt.Println("\nthe same specs, spelled for the other entry points:")
	fmt.Println(`  kmcluster -in pts.kmd -k 15 -optimizer minibatch:b=512,iters=150`)
	fmt.Println(`  kmstream  -in pts.kmd -k 15 -optimizer trimmed:0.01`)
	fmt.Println(`  curl -X POST :8080/v1/fit -d '{"model":"m","dataset":{"path":"pts.kmd"},` +
		`"config":{"k":15,"optimizer":{"type":"minibatch","batch_size":512,"iters":150}}}'`)
}
