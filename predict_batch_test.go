package kmeansll

import (
	"testing"

	"kmeansll/internal/geom"
)

// TestPredictBatchMatchesPredict checks both PredictBatch regimes (linear
// scan and kd-tree) against per-point Predict on well-separated blobs, where
// the nearest center is unambiguous. The d = 3, k = 300 shape is the one
// whose public regime depends on the kernel table.
func TestPredictBatchMatchesPredict(t *testing.T) {
	for _, sh := range []struct{ k, d int }{{3, 6}, {predictTreeMinK + 6, 6}, {300, 3}} {
		k := sh.k
		pts := makeBlobs(t, 40*k, sh.d, k, 60, uint64(k))
		m, err := Cluster(pts, Config{K: k, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		queries := makeBlobs(t, 500, sh.d, k, 60, uint64(k)+1)
		for _, useTree := range []bool{false, true} {
			got := make([]int, len(queries))
			m.predictBatch(queries, got, 3, useTree)
			for i, p := range queries {
				if want := m.Predict(p); got[i] != want {
					t.Fatalf("k=%d d=%d tree=%v point %d: batch says %d, Predict says %d", k, sh.d, useTree, i, got[i], want)
				}
			}
		}
		// The public entry point must agree too, whichever regime it picks.
		got := m.PredictBatch(queries, 0)
		for i, p := range queries {
			if want := m.Predict(p); got[i] != want {
				t.Fatalf("k=%d d=%d PredictBatch point %d: %d, want %d", k, sh.d, i, got[i], want)
			}
		}
	}
}

// TestPredictBatchRegime pins PredictBatch's regime rule. At k = 300 and
// 511, d = 3 it takes the blocked scan where the kernel table of the
// model's predict precision has a panel kernel (TestPanelKernelSelected
// ties that to the CPUID probe and its rung), and the kd-tree where it has
// none — km_purego builds and CPUs without AVX2+FMA, a Float32 model on
// the pure-Go tier — and under UseExactDistances(true). From
// predictPanelTreeK·(d+1) centers on (512 at d = 3, 256 at d = 1) it takes
// the tree in every setting and on every panel rung, and below
// predictTreeMinK (255 centers) the scan. The regime is read from the cache
// the public call built, and every answer is checked against Predict.
func TestPredictBatchRegime(t *testing.T) {
	defer UseExactDistances(false)
	defer geom.SetF32Tier(geom.ActiveF32Tier())
	queries := map[int][][]float64{1: makeBlobs(t, 600, 1, 512, 60, 11), 3: makeBlobs(t, 600, 3, 512, 60, 11)}
	run := func(setting string, k, d int, prec Precision, wantTree bool) {
		t.Helper()
		m, err := NewModel(makeBlobs(t, k, d, k, 60, 11))
		if err != nil {
			t.Fatal(err)
		}
		m.SetPredictPrecision(prec)
		got := m.PredictBatch(queries[d], 2)
		if tree := m.centerIndex.tree != nil; tree != wantTree {
			t.Fatalf("%s, k=%d d=%d %v: kd-tree regime = %v, want %v", setting, k, d, prec, tree, wantTree)
		}
		for i, p := range queries[d] {
			if want := m.Predict(p); got[i] != want {
				t.Fatalf("%s, k=%d d=%d %v: point %d: PredictBatch %d, Predict %d", setting, k, d, prec, i, got[i], want)
			}
		}
	}
	always := func(setting string) {
		t.Helper()
		for _, prec := range []Precision{Float64, Float32} {
			run(setting, 255, 3, prec, false)
			run(setting, 512, 3, prec, true)
			run(setting, 300, 1, prec, true)
		}
	}
	always("default")
	for _, k := range []int{300, 511} {
		run("default", k, 3, Float64, !geom.PanelKernel[float64]())
		run("default", k, 3, Float32, !geom.PanelKernel[float32]())
	}
	if !geom.SetF32Tier(geom.F32TierPureGo) {
		t.Fatal("pure-Go float32 tier unavailable")
	}
	run("pure-Go float32 tier", 300, 3, Float32, true)
	run("pure-Go float32 tier", 300, 3, Float64, !geom.PanelKernel[float64]())
	UseExactDistances(true)
	always("exact distances")
	for _, prec := range []Precision{Float64, Float32} {
		run("exact distances", 300, 3, prec, true)
	}
}

func TestPredictBatchEdgeCases(t *testing.T) {
	pts := makeBlobs(t, 100, 4, 2, 50, 3)
	m, err := Cluster(pts, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictBatch(nil, 4); len(got) != 0 {
		t.Fatalf("empty batch returned %d assignments", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	m.PredictBatch([][]float64{{1, 2}}, 1)
}

// TestTransformBatchMatchesTransform checks the blocked batch transform
// against per-point Transform. The batch path uses the norm expansion, so
// distances agree to 1e-9 relative (plus a norm-scaled absolute floor).
func TestTransformBatchMatchesTransform(t *testing.T) {
	pts := makeBlobs(t, 600, 13, 9, 8, 5)
	m, err := Cluster(pts, Config{K: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := makeBlobs(t, 333, 13, 9, 8, 6)
	got := m.TransformBatch(queries, 2)
	if len(got) != len(queries) {
		t.Fatalf("TransformBatch returned %d rows for %d points", len(got), len(queries))
	}
	for i, p := range queries {
		want := m.Transform(p)
		for c := range want {
			diff := got[i][c] - want[c]
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-9*(1+want[c]) {
				t.Fatalf("point %d center %d: batch %v, Transform %v", i, c, got[i][c], want[c])
			}
		}
	}
	if empty := m.TransformBatch(nil, 1); len(empty) != 0 {
		t.Fatalf("empty batch returned %d rows", len(empty))
	}
}

// TestUseExactDistances checks the public precision escape hatch pins the
// naive kernel (and that predictions still work while pinned).
func TestUseExactDistances(t *testing.T) {
	defer UseExactDistances(false)
	UseExactDistances(true)
	if geom.UseBlocked(1000, 1000) {
		t.Fatal("UseExactDistances(true) did not pin the naive kernel")
	}
	pts := makeBlobs(t, 200, 6, 4, 40, 8)
	m, err := Cluster(pts, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := m.PredictBatch(pts[:50], 1)
	for i, p := range pts[:50] {
		if want := m.Predict(p); got[i] != want {
			t.Fatalf("point %d: batch %d, Predict %d under exact distances", i, got[i], want)
		}
	}
	// Under the pin, TransformBatch must match per-point Transform exactly
	// (both run the (a−b)² kernel), even for data far from the origin.
	far := make([][]float64, 20)
	for i := range far {
		far[i] = make([]float64, 6)
		for j := range far[i] {
			far[i][j] = 1e8 + pts[i][j]
		}
	}
	tb := m.TransformBatch(far, 1)
	for i, p := range far {
		want := m.Transform(p)
		for c := range want {
			if tb[i][c] != want[c] {
				t.Fatalf("pinned TransformBatch[%d][%d] = %v, Transform = %v", i, c, tb[i][c], want[c])
			}
		}
	}
	UseExactDistances(false)
	if !geom.UseBlocked(32, 58) {
		t.Fatal("UseExactDistances(false) did not restore auto selection")
	}
}
