package kmeansll

import (
	"math"
	"testing"
)

func TestStreamingClustererBasic(t *testing.T) {
	points := makeBlobs(t, 2000, 4, 5, 40, 1)
	sc, err := NewStreamingClusterer(StreamingConfig{K: 5, Dim: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if err := sc.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if sc.N() != 2000 {
		t.Fatalf("N = %d", sc.N())
	}
	m, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 5 {
		t.Fatalf("K = %d", m.K())
	}
	// Streamed model should be within a modest factor of the batch fit.
	batch, err := Cluster(points, Config{K: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	streamOnFull := 0.0
	for _, p := range points {
		best := math.Inf(1)
		for _, c := range m.Centers {
			d := 0.0
			for j := range p {
				dv := p[j] - c[j]
				d += dv * dv
			}
			if d < best {
				best = d
			}
		}
		streamOnFull += best
	}
	if streamOnFull > 2*batch.Cost {
		t.Fatalf("streaming cost on full data %v ≫ batch %v", streamOnFull, batch.Cost)
	}
}

// Model must report what the refinement actually did, not hard-code
// success: with MaxIter=1 on a coreset that cannot possibly stabilize in
// one Lloyd iteration, Converged must come back false (and flip to true
// once the budget is generous), SeedCost must exceed the refined Cost, and
// Iters must reflect the budget. This is the regression test for the old
// Stream.Cluster path that discarded the lloyd.Result and published
// Converged: true / SeedCost == Cost unconditionally.
func TestStreamingModelReportsRealConvergence(t *testing.T) {
	points := makeBlobs(t, 3000, 6, 12, 30, 7)
	build := func(maxIter int) *Model {
		sc, err := NewStreamingClusterer(StreamingConfig{K: 12, Dim: 6, MaxIter: maxIter, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if err := sc.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		m, err := sc.Model()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	hard := build(1)
	if hard.Converged {
		t.Fatal("MaxIter=1 on a hard coreset reported Converged=true")
	}
	if hard.Iters != 1 {
		t.Fatalf("MaxIter=1 ran %d iterations", hard.Iters)
	}
	easy := build(0) // default budget: plenty for a 240-point coreset
	if !easy.Converged {
		t.Fatal("default budget did not converge on the coreset")
	}
	if easy.Iters <= 1 {
		t.Fatalf("default budget converged suspiciously fast: %d iterations", easy.Iters)
	}
	if !(easy.SeedCost > easy.Cost) {
		t.Fatalf("SeedCost %v not above refined Cost %v — still hard-coded?", easy.SeedCost, easy.Cost)
	}
}

// The streaming entry point composes with optimizers like every other data
// source: a mini-batch refit must report its fixed budget (Converged=false)
// and a trimmed refit must converge like Lloyd.
func TestStreamingClustererOptimizers(t *testing.T) {
	points := makeBlobs(t, 1500, 4, 6, 30, 9)
	fit := func(opt Optimizer) *Model {
		sc, err := NewStreamingClusterer(StreamingConfig{K: 6, Dim: 4, Optimizer: opt, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if err := sc.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		m, err := sc.Model()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lloydM := fit(nil)
	mb := fit(MiniBatch{BatchSize: 32, Iters: 40})
	if mb.Converged {
		t.Fatal("mini-batch refit reported Converged=true")
	}
	if mb.Iters != 40 {
		t.Fatalf("mini-batch refit ran %d iterations, want 40", mb.Iters)
	}
	// Both refine the same coreset; mini-batch should land in the same cost
	// regime as full Lloyd on well-separated blobs.
	if mb.Cost > 3*lloydM.Cost {
		t.Fatalf("mini-batch coreset cost %v ≫ lloyd %v", mb.Cost, lloydM.Cost)
	}
	tr := fit(Trimmed{Fraction: 0.05})
	if tr.K() != 6 {
		t.Fatalf("trimmed refit K = %d", tr.K())
	}
	if tr.Outliers != nil {
		t.Fatal("streaming model leaked coreset-indexed Outliers")
	}
}

func TestStreamingClustererErrors(t *testing.T) {
	if _, err := NewStreamingClusterer(StreamingConfig{K: 0, Dim: 2}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewStreamingClusterer(StreamingConfig{K: 2, Dim: 0}); err == nil {
		t.Fatal("Dim=0 accepted")
	}
	sc, _ := NewStreamingClusterer(StreamingConfig{K: 2, Dim: 3})
	if err := sc.Add([]float64{1, 2}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := sc.Model(); err == nil {
		t.Fatal("Model on empty stream accepted")
	}
}

func TestStreamingClustererIncremental(t *testing.T) {
	sc, _ := NewStreamingClusterer(StreamingConfig{K: 2, Dim: 2, CoresetSize: 32, Seed: 4})
	points := makeBlobs(t, 500, 2, 2, 60, 5)
	for _, p := range points[:250] {
		sc.Add(p)
	}
	m1, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points[250:] {
		sc.Add(p)
	}
	m2, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m1.K() != 2 || m2.K() != 2 {
		t.Fatalf("K drifted: %d %d", m1.K(), m2.K())
	}
}

func TestTransform(t *testing.T) {
	points := makeBlobs(t, 200, 3, 3, 30, 6)
	m, err := Cluster(points, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points[:20] {
		d := m.Transform(p)
		if len(d) != 3 {
			t.Fatalf("Transform length %d", len(d))
		}
		// argmin of Transform must equal Predict.
		best, bestD := 0, d[0]
		for c := 1; c < len(d); c++ {
			if d[c] < bestD {
				best, bestD = c, d[c]
			}
		}
		if best != m.Predict(p) {
			t.Fatal("Transform argmin disagrees with Predict")
		}
	}
}

func TestKernelSelection(t *testing.T) {
	points := makeBlobs(t, 600, 5, 6, 25, 8)
	var costs []float64
	for _, k := range []Kernel{NaiveKernel, ElkanKernel, HamerlyKernel} {
		m, err := Cluster(points, Config{K: 6, Seed: 9, Optimizer: Lloyd{Kernel: k}})
		if err != nil {
			t.Fatalf("kernel %d: %v", k, err)
		}
		costs = append(costs, m.Cost)
	}
	for i := 1; i < len(costs); i++ {
		if math.Abs(costs[i]-costs[0]) > 1e-6*(1+costs[0]) {
			t.Fatalf("kernel %d cost %v != naive %v", i, costs[i], costs[0])
		}
	}
	if _, err := Cluster(points, Config{K: 2, Optimizer: Lloyd{Kernel: Kernel(42)}}); err == nil {
		t.Fatal("bad kernel accepted")
	}
}
