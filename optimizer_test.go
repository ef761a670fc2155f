package kmeansll

import (
	"math"
	"testing"
)

// Every optimizer's canonical string must round-trip through ParseOptimizer,
// and the JSON spec through OptimizerSpec.Optimizer — that closed loop is
// what lets one spec travel library → CLI flag → fit-job JSON unchanged.
func TestOptimizerSpecRoundTrips(t *testing.T) {
	for _, opt := range []Optimizer{
		Lloyd{},
		Lloyd{Kernel: ElkanKernel},
		Lloyd{Kernel: HamerlyKernel},
		MiniBatch{},
		MiniBatch{BatchSize: 512, Iters: 200},
		MiniBatch{BatchSize: 512},
		MiniBatch{Iters: 7},
		Trimmed{Fraction: 0.05},
		Spherical{},
	} {
		parsed, err := ParseOptimizer(opt.String())
		if err != nil {
			t.Fatalf("ParseOptimizer(%q): %v", opt.String(), err)
		}
		if parsed.String() != opt.String() {
			t.Fatalf("flag round trip: %q → %q", opt.String(), parsed.String())
		}
		fromSpec, err := opt.Spec().Optimizer()
		if err != nil {
			t.Fatalf("Spec().Optimizer() for %q: %v", opt.String(), err)
		}
		if fromSpec != opt {
			t.Fatalf("spec round trip: %v → %v", opt, fromSpec)
		}
	}
}

func TestOptimizerSpecRejectsJunk(t *testing.T) {
	for _, s := range []string{
		"warp", "trimmed", "trimmed:1.5", "trimmed:-0.1", "trimmed:x",
		"trimmed:NaN", "trimmed:+Inf",
		"minibatch:b=-3", "minibatch:q=2", "minibatch:b", "spherical:yes",
		"lloyd:quantum",
	} {
		if opt, err := ParseOptimizer(s); err == nil {
			t.Fatalf("ParseOptimizer(%q) accepted: %v", s, opt)
		}
	}
	for _, spec := range []OptimizerSpec{
		{Type: "warp"},
		{Type: "trimmed", Fraction: 1},
		{Type: "trimmed", Iters: 3, Fraction: 0.1},
		{Type: "minibatch", Fraction: 0.1},
		{Type: "minibatch", Kernel: "elkan"},
		{Type: "spherical", BatchSize: 2},
		{Type: "lloyd", Kernel: "fast"},
		{Type: "lloyd", Fraction: 0.2},
	} {
		if opt, err := spec.Optimizer(); err == nil {
			t.Fatalf("spec %+v accepted: %v", spec, opt)
		}
	}
}

// Trimmed must populate the outlier report and shield centers from planted
// noise. k=1 isolates the textbook effect with no seeding luck involved:
// the plain centroid of clean-data-plus-scattered-junk is dragged far off
// the clean centroid, while the trimmed fit excludes exactly the junk each
// iteration and recovers the clean centroid.
func TestClusterTrimmedRobustToPlantedOutliers(t *testing.T) {
	clean := makeBlobs(t, 500, 3, 1, 1, 17)
	points := append([][]float64{}, clean...)
	for i := 0; i < 20; i++ {
		// Scattered junk at radius 250–480, all in the positive orthant so
		// the drag cannot cancel out.
		dir := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}}[i%7]
		r := 250 + 12*float64(i)
		points = append(points, []float64{r * dir[0], r * dir[1], r * dir[2]})
	}
	cfg := Config{K: 1, Seed: 6}
	plain, err := Cluster(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Optimizer = Trimmed{Fraction: 0.05}
	trimmed, err := Cluster(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Outliers != nil {
		t.Fatal("plain fit reported Outliers")
	}
	wantTrim := int(0.05 * float64(len(points)))
	if len(trimmed.Outliers) != wantTrim {
		t.Fatalf("trimmed flagged %d outliers, want %d", len(trimmed.Outliers), wantTrim)
	}
	planted := 0
	for _, i := range trimmed.Outliers {
		if i >= len(clean) {
			planted++
		}
	}
	if planted != 20 {
		t.Fatalf("only %d of the 20 planted outliers were flagged", planted)
	}
	if !(trimmed.TrimmedCost < trimmed.Cost) {
		t.Fatalf("TrimmedCost %v not below Cost %v", trimmed.TrimmedCost, trimmed.Cost)
	}
	// The clean centroid sits near the blob mean; the dragged one does not.
	cleanCentroid := make([]float64, 3)
	for _, p := range clean {
		for j, v := range p {
			cleanCentroid[j] += v / float64(len(clean))
		}
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for j := range a {
			s += (a[j] - b[j]) * (a[j] - b[j])
		}
		return math.Sqrt(s)
	}
	if d := dist(plain.Centers[0], cleanCentroid); d < 3 {
		t.Fatalf("planted junk did not drag the plain centroid (moved only %v) — weak scenario", d)
	}
	if d := dist(trimmed.Centers[0], cleanCentroid); d > 0.5 {
		t.Fatalf("trimmed centroid still %v away from the clean centroid", d)
	}
}

// Spherical must fit unit-norm centers over a normalized copy without
// touching the caller's data, and reject zero rows.
func TestClusterSpherical(t *testing.T) {
	points := makeBlobs(t, 600, 5, 3, 10, 23)
	orig := make([]float64, len(points[0]))
	copy(orig, points[0])
	m, err := Cluster(points, Config{K: 3, Seed: 4, Optimizer: Spherical{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Centers {
		var n2 float64
		for _, v := range c {
			n2 += v * v
		}
		if math.Abs(n2-1) > 1e-9 {
			t.Fatalf("center %d has squared norm %v, want 1", i, n2)
		}
	}
	for j, v := range points[0] {
		if v != orig[j] {
			t.Fatal("Spherical mutated the input points")
		}
	}
	if !(m.Cohesion > 0) {
		t.Fatalf("Cohesion = %v, want the (positive) spherical objective", m.Cohesion)
	}
	withZero := append(points, make([]float64, 5))
	if _, err := Cluster(withZero, Config{K: 3, Optimizer: Spherical{}}); err == nil {
		t.Fatal("zero row accepted by Spherical")
	}
}

// MiniBatch through the public API: deterministic for a fixed seed and
// reports its fixed budget honestly.
func TestClusterMiniBatch(t *testing.T) {
	points := makeBlobs(t, 1200, 4, 6, 25, 29)
	cfg := Config{K: 6, Seed: 9, Optimizer: MiniBatch{BatchSize: 96, Iters: 30}}
	a, err := Cluster(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centers {
		for j := range a.Centers[i] {
			if a.Centers[i][j] != b.Centers[i][j] {
				t.Fatalf("center %d dim %d differs across identical runs", i, j)
			}
		}
	}
	if a.Converged {
		t.Fatal("mini-batch fit reported Converged=true")
	}
	if a.Iters != 30 {
		t.Fatalf("Iters = %d, want 30", a.Iters)
	}
	if !(a.Cost < a.SeedCost) {
		t.Fatalf("mini-batch did not improve on the seeding: %v ≥ %v", a.Cost, a.SeedCost)
	}
	if len(a.Assign) != len(points) {
		t.Fatalf("Assign has %d entries for %d points", len(a.Assign), len(points))
	}
	// Config.MaxIter is the step budget when MiniBatch.Iters is unset — it
	// must not be silently dropped.
	capped, err := Cluster(points, Config{K: 6, Seed: 9, MaxIter: 7, Optimizer: MiniBatch{}})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Iters != 7 {
		t.Fatalf("MaxIter=7 with unset Iters ran %d steps", capped.Iters)
	}
	// An explicit Iters wins over the shared cap.
	explicit, err := Cluster(points, Config{K: 6, Seed: 9, MaxIter: 7, Optimizer: MiniBatch{Iters: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Iters != 12 {
		t.Fatalf("explicit Iters=12 ran %d steps", explicit.Iters)
	}
}
