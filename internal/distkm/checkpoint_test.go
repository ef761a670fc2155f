package distkm

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/mrkm"
)

// crashFit runs a checkpointed fit over workers whose clients all die after
// `healthy` calls, so the coordinator "crashes" (errors out with everything
// dead) partway through. Returns the checkpoint left behind.
func crashFit(t *testing.T, dir string, ds *geom.Dataset, cfg core.Config, workers, healthy int) *Checkpoint {
	t.Helper()
	return crashFitPrecision(t, dir, ds, cfg, workers, healthy, false)
}

// crashFitPrecision is crashFit with the shard precision selectable.
func crashFitPrecision(t *testing.T, dir string, ds *geom.Dataset, cfg core.Config, workers, healthy int, f32 bool) *Checkpoint {
	t.Helper()
	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	wrapped := make([]Client, len(clients))
	for i, cl := range clients {
		wrapped[i] = &flakyClient{inner: cl, healthy: healthy}
	}
	c, err := NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(fastRetry)
	c.SetCheckpointer(&Checkpointer{Dir: dir, EveryLloyd: 1})
	c.SetFloat32(f32)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Fit(cfg, 20); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("interrupted fit: %v, want ErrNoWorkers (raise healthy budget?)", err)
	}
	if !HasCheckpoint(dir) {
		t.Fatal("no checkpoint written before the crash")
	}
	cp, _, _, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// resumeFit stands up a fresh coordinator over `workers` workers (a
// different count than crashed, typically) and resumes from dir.
func resumeFit(t *testing.T, dir string, ds *geom.Dataset, cfg core.Config, workers int) (*geom.Matrix, *geom.Matrix, Stats) {
	t.Helper()
	return resumeFitPrecision(t, dir, ds, cfg, workers, false)
}

// resumeFitPrecision is resumeFit with the shard precision selectable.
func resumeFitPrecision(t *testing.T, dir string, ds *geom.Dataset, cfg core.Config, workers int, f32 bool) (*geom.Matrix, *geom.Matrix, Stats) {
	t.Helper()
	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCheckpointer(&Checkpointer{Dir: dir, EveryLloyd: 1})
	c.SetFloat32(f32)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	initC, res, stats, err := c.ResumeFit(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	return initC, res.Centers, stats
}

// A fit killed during the sampling rounds and resumed on a different worker
// count lands on exactly the bits of the uninterrupted run: the checkpoint's
// shard count — not the new worker count — defines the reduction geometry.
func TestResumeMidInitBitIdentical(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 41)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 21}
	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds, wantCenters, 20, mrkm.Config{Mappers: workers})

	dir := t.TempDir()
	cp := crashFit(t, dir, ds, cfg, workers, 7)
	if cp.Phase != PhaseInit {
		t.Fatalf("crash landed in phase %q, want %q (adjust the healthy budget)", cp.Phase, PhaseInit)
	}
	if cp.Round < 1 {
		t.Fatalf("checkpointed round %d; the test should interrupt after at least one sampling round", cp.Round)
	}
	if cp.Shards != workers {
		t.Fatalf("checkpoint shards %d, want %d", cp.Shards, workers)
	}

	gotInit, gotCenters, _ := resumeFit(t, dir, ds, cfg, 2) // fewer workers than crashed
	requireBitIdentical(t, "resumed Init centers", gotInit, wantCenters)
	requireBitIdentical(t, "resumed Lloyd centers", gotCenters, wantRes.Centers)
}

// The float32 form of the mid-init resume. A float32 Update's per-pair
// distances depend on how many centers arrive together (one center takes the
// scalar expansion, larger groups the blocked kernels), so the resume must
// replay the checkpointed Update groups rather than refold every candidate
// at once, or φ misses the checkpointed value.
func TestFloat32ResumeMidInitBitIdentical(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 41)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 21}
	ds32 := geom.ConvertSet[float32](ds)
	wantCenters, _ := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds32, wantCenters, 20, mrkm.Config{Mappers: workers})

	dir := t.TempDir()
	cp := crashFitPrecision(t, dir, ds, cfg, workers, 7, true)
	if cp.Phase != PhaseInit {
		t.Fatalf("crash landed in phase %q, want %q (adjust the healthy budget)", cp.Phase, PhaseInit)
	}
	if cp.Round < 1 {
		t.Fatalf("checkpointed round %d; the test should interrupt after at least one sampling round", cp.Round)
	}

	gotInit, gotCenters, _ := resumeFitPrecision(t, dir, ds, cfg, 2, true)
	requireBitIdentical(t, "resumed float32 Init centers", gotInit, wantCenters)
	requireBitIdentical(t, "resumed float32 Lloyd centers", gotCenters, wantRes.Centers)
}

// Same property when the coordinator dies between Lloyd iterations: the
// resume skips seeding entirely and continues the iteration stream.
func TestResumeMidLloydBitIdentical(t *testing.T) {
	const workers = 2
	ds := blobs(t, 4, 80, 5, 25, 43)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 33}
	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds, wantCenters, 20, mrkm.Config{Mappers: workers})

	dir := t.TempDir()
	cp := crashFit(t, dir, ds, cfg, workers, 15)
	if cp.Phase != PhaseLloyd {
		t.Fatalf("crash landed in phase %q, want %q (adjust the healthy budget)", cp.Phase, PhaseLloyd)
	}

	gotInit, gotCenters, _ := resumeFit(t, dir, ds, cfg, 3) // more workers than crashed
	requireBitIdentical(t, "resumed seeding centers", gotInit, wantCenters)
	requireBitIdentical(t, "resumed Lloyd centers", gotCenters, wantRes.Centers)
}

// A fit whose last checkpoint was saved on the iteration that converged
// resumes to the finished result: the same Iters, CostTrace, centers and
// cost as the uninterrupted run, with no further iteration.
func TestResumeFromConvergedCheckpoint(t *testing.T) {
	ds := blobs(t, 4, 100, 5, 25, 43)
	cfg := core.Config{K: 4, Seed: 33}
	dir := t.TempDir()
	c := loopbackCoordinator(t, ds, 2)
	c.SetCheckpointer(&Checkpointer{Dir: dir, EveryLloyd: 1})
	_, want, _, err := c.Fit(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, _, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged || cp.Phase != PhaseLloyd || cp.Iter != want.Iters || !cp.Converged {
		t.Fatalf("fit converged=%v in %d iterations, checkpoint phase %q iter %d converged=%v",
			want.Converged, want.Iters, cp.Phase, cp.Iter, cp.Converged)
	}

	r := loopbackCoordinator(t, ds, 2)
	r.SetCheckpointer(&Checkpointer{Dir: dir, EveryLloyd: 1})
	_, got, stats, err := r.ResumeFit(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters != want.Iters || !got.Converged {
		t.Fatalf("resumed fit reports %d iterations (converged=%v), the fit took %d", got.Iters, got.Converged, want.Iters)
	}
	requireSameTrace(t, "resumed CostTrace", got.CostTrace, want.CostTrace)
	requireBitIdentical(t, "resumed centers", got.Centers, want.Centers)
	requireSameTrace(t, "resumed cost", []float64{got.Cost}, []float64{want.Cost})
	if stats.RPCRounds != 1 {
		t.Fatalf("resume ran %d fan-outs, want only the final Assign", stats.RPCRounds)
	}
}

// A checkpoint from a different fit configuration (or dataset) must be
// rejected, not silently blended into the wrong run.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	ds := blobs(t, 4, 60, 5, 25, 47)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 5}
	dir := t.TempDir()
	crashFit(t, dir, ds, cfg, 2, 7)

	clients, closeAll := LoopbackCluster(2)
	t.Cleanup(closeAll)
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCheckpointer(&Checkpointer{Dir: dir})
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 6
	if _, _, _, err := c.ResumeFit(bad, 20); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatched seed accepted: %v", err)
	}
	bad = cfg
	bad.K = 5
	if _, _, _, err := c.ResumeFit(bad, 20); err == nil || !strings.Contains(err.Error(), "k=") {
		t.Fatalf("mismatched k accepted: %v", err)
	}

	// Without a checkpointer, resuming is an explicit error.
	c.SetCheckpointer(nil)
	if _, _, _, err := c.ResumeFit(cfg, 20); err == nil {
		t.Fatal("ResumeFit without a checkpointer succeeded")
	}
}

// Superseded center snapshots are pruned: after a completed checkpointed
// fit, the directory holds one checkpoint.json and at most the referenced
// snapshots, not one .kmd per round.
func TestCheckpointPruneAndRemove(t *testing.T) {
	ds := blobs(t, 4, 60, 5, 25, 53)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 15}
	dir := t.TempDir()

	clients, closeAll := LoopbackCluster(2)
	t.Cleanup(closeAll)
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCheckpointer(&Checkpointer{Dir: dir, EveryLloyd: 1})
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Fit(cfg, 20); err != nil {
		t.Fatal(err)
	}
	var kmd int
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".kmd" {
			kmd++
		}
	}
	// At most the live centers snapshot plus the seeding snapshot survive.
	if kmd > 2 {
		t.Fatalf("%d .kmd snapshots left after pruning, want <= 2", kmd)
	}
	snap := c.Snapshot()
	if snap.Checkpoint == nil || snap.Checkpoint.Phase != PhaseLloyd {
		t.Fatalf("snapshot checkpoint info missing or wrong: %+v", snap.Checkpoint)
	}

	if err := RemoveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	if HasCheckpoint(dir) {
		t.Fatal("checkpoint still present after RemoveCheckpoint")
	}
	if err := RemoveCheckpoint(filepath.Join(dir, "never-existed")); err != nil {
		t.Fatalf("RemoveCheckpoint on a missing dir: %v", err)
	}
}
