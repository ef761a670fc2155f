package distkm

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/mrkm"
)

// The float32 counterpart of the headline property: a float32 fit over W
// shard workers is bit-identical to mrkm.Init + mrkm.Lloyd over float32 points with
// Mappers: W. Every worker runs the same span bodies the in-process
// mappers run, candidates cross the wire as exact float64 widenings, and all
// reductions stay float64 in shard order.

// loopbackCoordinator32 is loopbackCoordinator with the float32 shard form
// selected before Distribute.
func loopbackCoordinator32(t *testing.T, ds *geom.Dataset, workers int) *Coordinator {
	t.Helper()
	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFloat32(true)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFloat32InitBitIdenticalToMRKM32(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 1)
	ds32 := geom.ConvertSet[float32](ds)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 7}

	wantCenters, wantStats := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})

	c := loopbackCoordinator32(t, ds, workers)
	gotCenters, gotStats, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "float32 Init centers", gotCenters, wantCenters)
	if gotStats.Candidates != wantStats.Candidates {
		t.Fatalf("candidates: %d vs %d", gotStats.Candidates, wantStats.Candidates)
	}
	if math.Float64bits(gotStats.Psi) != math.Float64bits(wantStats.Psi) {
		t.Fatalf("ψ differs: %v vs %v", gotStats.Psi, wantStats.Psi)
	}
	if len(gotStats.PhiTrace) != len(wantStats.PhiTrace) {
		t.Fatalf("φ trace lengths differ: %d vs %d", len(gotStats.PhiTrace), len(wantStats.PhiTrace))
	}
	for i := range wantStats.PhiTrace {
		if math.Float64bits(gotStats.PhiTrace[i]) != math.Float64bits(wantStats.PhiTrace[i]) {
			t.Fatalf("φ trace differs at %d: %v vs %v", i, gotStats.PhiTrace[i], wantStats.PhiTrace[i])
		}
	}
	if math.Float64bits(gotStats.SeedCost) != math.Float64bits(wantStats.SeedCost) {
		t.Fatalf("seed cost differs: %v vs %v", gotStats.SeedCost, wantStats.SeedCost)
	}
}

func TestFloat32LloydBitIdenticalToMRKM32(t *testing.T) {
	const workers = 4
	ds := blobs(t, 4, 100, 5, 40, 9)
	ds32 := geom.ConvertSet[float32](ds)
	init, _ := mrkm.Init(ds32, core.Config{K: 4, Seed: 10}, mrkm.Config{Mappers: workers})

	wantRes, _ := mrkm.Lloyd(ds32, init, 30, mrkm.Config{Mappers: workers})

	c := loopbackCoordinator32(t, ds, workers)
	gotRes, _, err := c.Lloyd(init, 30)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "float32 Lloyd centers", gotRes.Centers, wantRes.Centers)
	if gotRes.Iters != wantRes.Iters || gotRes.Converged != wantRes.Converged {
		t.Fatalf("iters/converged: %d/%v vs %d/%v",
			gotRes.Iters, gotRes.Converged, wantRes.Iters, wantRes.Converged)
	}
	for i := range wantRes.Assign {
		if gotRes.Assign[i] != wantRes.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, gotRes.Assign[i], wantRes.Assign[i])
		}
	}
	if math.Float64bits(gotRes.Cost) != math.Float64bits(wantRes.Cost) {
		t.Fatalf("cost differs: %v vs %v", gotRes.Cost, wantRes.Cost)
	}
}

// Weighted float32 shards: weights stay float64 on the wire and in every
// reduction, so the weighted fit is bit-identical too.
func TestFloat32WeightedBitIdenticalToMRKM32(t *testing.T) {
	const workers = 3
	ds := blobs(t, 4, 90, 5, 20, 5)
	w := make([]float64, ds.N())
	for i := range w {
		w[i] = 0.5 + float64(i%7)/4
	}
	ds.Weight = w
	ds32 := geom.ConvertSet[float32](ds)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 13}

	wantCenters, _ := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})
	c := loopbackCoordinator32(t, ds, workers)
	gotCenters, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "weighted float32 Init centers", gotCenters, wantCenters)
}

// A worker dying mid-float32-fit re-pushes its shard (narrowed again by the
// replacement worker) and rebuilds the D² cache — still bit-identical.
func TestFloat32FailoverPreservesBitIdentity(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 1)
	ds32 := geom.ConvertSet[float32](ds)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 7}
	wantCenters, wantStats := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})

	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	clients[1] = &flakyClient{inner: clients[1], healthy: 4}
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFloat32(true)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	gotCenters, stats, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers == 0 {
		t.Fatal("expected at least one failover")
	}
	requireBitIdentical(t, "post-failover float32 Init centers", gotCenters, wantCenters)
	requireSameTrace(t, "post-failover float32 PhiTrace", stats.PhiTrace, wantStats.PhiTrace)
}

// Float32 pull mode: workers mmap float32 .kmd part files (the native view is
// zero-copy) and the fit still lands on the bits of the in-process float32
// realization — including when shard spans straddle part boundaries (the
// copying path).
func TestFloat32ManifestPullBitIdentical(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 150, 7, 25, 3)
	ds32 := geom.ConvertSet[float32](ds)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 11}

	wantCenters, _ := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds32, wantCenters, 20, mrkm.Config{Mappers: workers})

	for _, parts := range []int{workers, 5} {
		dir := t.TempDir()
		m := &dsio.Manifest{Rows: ds32.N(), Cols: ds32.Dim()}
		n := ds32.N()
		for p := 0; p < parts; p++ {
			lo, hi := p*n/parts, (p+1)*n/parts
			view := ds32.X.RowRange(lo, hi)
			name := filepath.Join(dir, partName(p))
			if err := dsio.Save32(name, &geom.Set[float32]{X: &view}); err != nil {
				t.Fatal(err)
			}
			m.Shards = append(m.Shards, dsio.ManifestShard{Path: partName(p), Rows: hi - lo})
		}

		coord, err := NewCoordinator(pullCluster(t, workers, dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		coord.SetFloat32(true)
		if err := coord.DistributeManifest(m); err != nil {
			t.Fatal(err)
		}
		gotCenters, _, err := coord.Init(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "float32 pull Init centers", gotCenters, wantCenters)
		gotRes, _, err := coord.Lloyd(gotCenters, 20)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "float32 pull Lloyd centers", gotRes.Centers, wantRes.Centers)
	}
}

func partName(p int) string {
	return "part-" + string(rune('0'+p)) + ".kmd"
}

// TestTwoProcessFloat32BitIdentical is the float32 acceptance test for the
// networked tier: a float32 fit over two real kmworker OS processes (TCP +
// gob) lands on the bits of mrkm.Init + mrkm.Lloyd over float32 points with two mappers.
// Both processes run the same binary on the same host, so they resolve the
// same float32 kernel tier — the homogeneity the bit-parity contract needs.
// Skipped under -short because it shells out to `go build`.
func TestTwoProcessFloat32BitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two-process integration test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "kmworker")
	build := exec.Command("go", "build", "-tags", workerBuildTags, "-o", bin, "kmeansll/cmd/kmworker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kmworker: %v\n%s", err, out)
	}

	const workers = 2
	clients := make([]Client, workers)
	for i := range clients {
		addr := startWorkerProc(t, bin)
		cl, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dialing worker %d at %s: %v", i, addr, err)
		}
		clients[i] = cl
	}
	coord, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetFloat32(true)

	ds := blobs(t, 5, 150, 8, 30, 17)
	ds32 := geom.ConvertSet[float32](ds)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 23}
	if err := coord.Distribute(ds); err != nil {
		t.Fatal(err)
	}

	wantInit, _ := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds32, wantInit, 20, mrkm.Config{Mappers: workers})

	gotInit, _, err := coord.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "two-process float32 Init centers", gotInit, wantInit)

	gotRes, _, err := coord.Lloyd(gotInit, 20)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "two-process float32 Lloyd centers", gotRes.Centers, wantRes.Centers)
	for i := range wantRes.Assign {
		if gotRes.Assign[i] != wantRes.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, gotRes.Assign[i], wantRes.Assign[i])
		}
	}
	if math.Float64bits(gotRes.Cost) != math.Float64bits(wantRes.Cost) {
		t.Fatalf("cost differs over TCP: %v vs %v", gotRes.Cost, wantRes.Cost)
	}
}

// Pushing float64 data into float32 shards must narrow exactly once: a
// float32 fit over data that is NOT float32-representable still matches the
// in-process run on the narrowed dataset (both narrow the same float64 rows).
func TestFloat32PushNarrowsOnce(t *testing.T) {
	const workers = 2
	ds := blobs(t, 3, 60, 4, 15, 21) // raw float64 blobs, not f32-representable
	ds32 := geom.ConvertSet[float32](ds)
	cfg := core.Config{K: 3, L: 6, Rounds: 3, Seed: 5}

	wantCenters, _ := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})
	c := loopbackCoordinator32(t, ds, workers)
	gotCenters, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "narrowed push Init centers", gotCenters, wantCenters)
}
