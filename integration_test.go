package kmeansll

// Cross-package integration tests: full pipelines spanning generators, every
// initializer, every Lloyd kernel, the MapReduce realization, the streaming
// coreset, CSV round trips and the quality metrics — the flows a user of the
// repository actually runs.

import (
	"bytes"
	"math"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/coreset"
	"kmeansll/internal/data"
	"kmeansll/internal/geom"
	"kmeansll/internal/kdtree"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/metrics"
	"kmeansll/internal/mrkm"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
	"kmeansll/internal/stream"
)

// TestAllKernelsAgreeOnFixedPointCost verifies that the four exact Lloyd
// implementations (naive, Elkan, Hamerly, kd-tree filtering) reach the same
// cost from a shared k-means|| seed on a realistic workload.
func TestAllKernelsAgreeOnFixedPointCost(t *testing.T) {
	ds := data.KDDLike(data.KDDLikeConfig{N: 4000, Seed: 1})
	init, _ := core.Init(ds, core.Config{K: 20, Seed: 2})

	cfg := lloyd.Config{MaxIter: 60}
	naive := lloyd.Run(ds, init, cfg)
	elkan := lloyd.Refine(lloyd.Opt{Kernel: lloyd.Elkan}, ds, init, cfg, 0)
	hamerly := lloyd.Refine(lloyd.Opt{Kernel: lloyd.Hamerly}, ds, init, cfg, 0)
	_, treeCost, _, _ := kdtree.Build(ds, 16).Run(init, 60)

	tol := 1e-6 * (1 + naive.Cost)
	for name, cost := range map[string]float64{
		"elkan": elkan.Cost, "hamerly": hamerly.Cost, "kdtree": treeCost,
	} {
		if math.Abs(cost-naive.Cost) > tol {
			t.Fatalf("%s cost %v != naive %v", name, cost, naive.Cost)
		}
	}
}

// TestEndToEndCSVPipeline mirrors the CLI flow: generate → CSV → reload →
// cluster → save model → reload model → predict.
func TestEndToEndCSVPipeline(t *testing.T) {
	orig, _ := data.GaussMixture(data.GaussMixtureConfig{N: 500, D: 6, K: 5, R: 25, Seed: 3})
	var csv bytes.Buffer
	if err := data.WriteCSV(&csv, orig); err != nil {
		t.Fatal(err)
	}
	ds, err := data.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, ds.N())
	for i := range points {
		points[i] = ds.Point(i)
	}
	m, err := Cluster(points, Config{K: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if back.Predict(points[i]) != m.Assign[i] {
			t.Fatalf("reloaded model disagrees at point %d", i)
		}
	}
}

// TestSeedingFamilyQualityOrder checks the cross-package quality story on
// labeled data: every D²-based seeding recovers the mixture (high NMI),
// Random does not, and all seeds drive Lloyd to a sane fixed point.
func TestSeedingFamilyQualityOrder(t *testing.T) {
	const k = 10
	ds, truth := data.GaussMixture(data.GaussMixtureConfig{N: 3000, D: 10, K: k, R: 40, Seed: 5})
	labels := make([]int, ds.N())
	for i := range labels {
		idx, _ := geom.Nearest(ds.Point(i), truth)
		labels[i] = idx
	}
	nmiOf := func(init *geom.Matrix) float64 {
		res := lloyd.Run(ds, init, lloyd.Config{MaxIter: 100})
		return metrics.NMI(res.Assign, labels, res.Centers.Rows, k)
	}
	kmll, _ := core.Init(ds, core.Config{K: k, Seed: 6})
	kmpp := seed.KMeansPP(ds, k, rng.New(7), 0)
	greedy := seed.GreedyKMeansPP(ds, k, 3, rng.New(8), 0)
	part, _ := stream.Partition(ds, stream.Config{K: k, Seed: 9})
	for name, init := range map[string]*geom.Matrix{
		"kmeans||": kmll, "kmeans++": kmpp, "greedy": greedy, "partition": part,
	} {
		if v := nmiOf(init); v < 0.9 {
			t.Fatalf("%s NMI = %v, want > 0.9 on well-separated mixture", name, v)
		}
	}
}

// TestStreamingMatchesBatchOnKDD compares one-pass StreamKM++ clustering to
// batch k-means|| on the same skewed workload; the coreset route must stay
// within a modest factor.
func TestStreamingMatchesBatchOnKDD(t *testing.T) {
	const k = 20
	ds := data.KDDLike(data.KDDLikeConfig{N: 8000, Seed: 10})
	s := coreset.NewStream(30*k, ds.Dim(), 11)
	for i := 0; i < ds.N(); i++ {
		s.Add(ds.Point(i))
	}
	streamCenters := s.Cluster(k).Centers
	streamRes := lloyd.Run(ds, streamCenters, lloyd.Config{MaxIter: 20})

	batchInit, _ := core.Init(ds, core.Config{K: k, Seed: 12})
	batchRes := lloyd.Run(ds, batchInit, lloyd.Config{MaxIter: 20})

	if streamRes.Cost > 3*batchRes.Cost {
		t.Fatalf("streaming final cost %v ≫ batch %v", streamRes.Cost, batchRes.Cost)
	}
}

// TestMapReduceEndToEnd runs the full §3.5 pipeline (MR init + MR Lloyd) and
// cross-checks it against the in-process pipeline with the same seed at as
// many chunks as mappers, which runs the same drivers over the same
// partition: the centers and the cost must be bit-identical.
func TestMapReduceEndToEnd(t *testing.T) {
	ds := data.KDDLike(data.KDDLikeConfig{N: 5000, Seed: 13})
	cfg := core.Config{K: 15, L: 30, Rounds: 5, Seed: 14, Parallelism: 4}
	mrInit, mrStats := mrkm.Init(ds, cfg, mrkm.Config{Mappers: 4})
	mrRes, _ := mrkm.Lloyd(ds, mrInit, 20, mrkm.Config{Mappers: 4})

	inInit, inStats := core.Init(ds, cfg)
	inRes := lloyd.Run(ds, inInit, lloyd.Config{MaxIter: 20, Parallelism: 4})

	if mrStats.Candidates != inStats.Candidates {
		t.Fatalf("candidate sets diverged: %d vs %d", mrStats.Candidates, inStats.Candidates)
	}
	for i, v := range inRes.Centers.Data {
		if math.Float64bits(mrRes.Centers.Data[i]) != math.Float64bits(v) {
			t.Fatalf("MR pipeline center value %d is %v, in-process %v", i, mrRes.Centers.Data[i], v)
		}
	}
	if math.Float64bits(mrRes.Cost) != math.Float64bits(inRes.Cost) {
		t.Fatalf("MR pipeline cost %v != in-process %v", mrRes.Cost, inRes.Cost)
	}
}

// TestSphericalOnNormalizedSpam exercises the spherical variant on the text-
// like workload it is meant for.
func TestSphericalOnNormalizedSpam(t *testing.T) {
	ds := data.SpamLike(data.SpamLikeConfig{N: 1000, Seed: 15})
	zeros := lloyd.NormalizeRows(ds)
	if zeros > 0 {
		// Drop zero rows (messages with no features) before clustering.
		keep := make([]int, 0, ds.N())
		for i := 0; i < ds.N(); i++ {
			if geom.SqNorm(ds.Point(i)) > 0 {
				keep = append(keep, i)
			}
		}
		ds = ds.Subset(keep)
	}
	init, _ := core.Init(ds, core.Config{K: 8, Seed: 16})
	res := lloyd.Refine(lloyd.Opt{Kind: lloyd.OptSpherical}, ds, init, lloyd.Config{MaxIter: 50}, 0)
	if res.Cohesion <= 0 {
		t.Fatalf("cohesion %v", res.Cohesion)
	}
	if !res.Converged && res.Iters < 50 {
		t.Fatal("spherical stopped early without converging")
	}
}

// TestTrimmedPipelineOnContaminatedData runs k-means|| seeding plus trimmed
// Lloyd on data with injected outliers and checks the outliers are flagged.
func TestTrimmedPipelineOnContaminatedData(t *testing.T) {
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: 2000, D: 6, K: 8, R: 20, Seed: 17})
	r := rng.New(18)
	const nOut = 20
	for i := 0; i < nOut; i++ {
		p := make([]float64, 6)
		for j := range p {
			p[j] = 2000 + 100*r.NormFloat64()
		}
		ds.X.AppendRow(p)
	}
	init, _ := core.Init(ds, core.Config{K: 8, Seed: 19})
	trim := lloyd.Opt{Kind: lloyd.OptTrimmed, TrimFraction: float64(nOut) / float64(ds.N())}
	res := lloyd.Refine(trim, ds, init, lloyd.Config{}, 0)
	flaggedInjected := 0
	for _, i := range res.Outliers {
		if i >= 2000 {
			flaggedInjected++
		}
	}
	if flaggedInjected < nOut*8/10 {
		t.Fatalf("only %d/%d injected outliers flagged", flaggedInjected, nOut)
	}
}

// TestMetricsAgreeAcrossPipelines sanity-checks silhouette/DB on the same
// fit: a k-means|| fit on separated blobs scores well on both.
func TestMetricsAgreeAcrossPipelines(t *testing.T) {
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: 1500, D: 5, K: 6, R: 50, Seed: 20})
	init, _ := core.Init(ds, core.Config{K: 6, Seed: 21})
	res := lloyd.Run(ds, init, lloyd.Config{})
	sil := metrics.Silhouette(ds, res.Assign, 6, 500, 22)
	db := metrics.DaviesBouldin(ds, res.Centers, res.Assign)
	if sil < 0.6 {
		t.Fatalf("silhouette %v on well-separated fit", sil)
	}
	if db <= 0 || db > 0.7 {
		t.Fatalf("Davies-Bouldin %v on well-separated fit", db)
	}
}
