package distkm

import (
	"math"
	"strings"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/dsio"
	"kmeansll/internal/mrkm"
)

// pullCluster builds n loopback workers that all resolve shard paths under
// dir — the in-process analogue of kmworker -data-dir on machines sharing a
// dataset directory.
func pullCluster(t *testing.T, n int, dir string) []Client {
	t.Helper()
	clients := make([]Client, n)
	for i := range clients {
		w := NewWorker()
		w.SetDataDir(dir)
		clients[i] = NewLoopback(w)
	}
	t.Cleanup(func() {
		for _, c := range clients {
			_ = c.Close()
		}
	})
	return clients
}

// The pull path's headline property: a fit whose workers mmap their shards
// from local part files is bit-identical to the push fit (and hence to the
// single-process mrkm realization), whether or not the manifest's part
// boundaries line up with the shard spans.
func TestManifestPullBitIdenticalToPush(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 150, 7, 25, 3)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 11}

	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds, wantCenters, 20, mrkm.Config{Mappers: workers})

	// parts == workers aligns every span with one file (zero-copy on the
	// worker); parts = 5 forces spans to straddle file boundaries (the
	// multi-segment copying path). Both must change nothing.
	for _, parts := range []int{workers, 5} {
		dir := t.TempDir()
		m, err := dsio.Split(ds, dir, parts)
		if err != nil {
			t.Fatal(err)
		}

		coord, err := NewCoordinator(pullCluster(t, workers, dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		if err := coord.DistributeManifest(m); err != nil {
			t.Fatal(err)
		}
		gotCenters, _, err := coord.Init(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pull Init centers", gotCenters, wantCenters)
		gotRes, _, err := coord.Lloyd(gotCenters, 20)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pull Lloyd centers", gotRes.Centers, wantRes.Centers)
	}
}

// A worker dying mid-pull-fit has its shard re-assigned by re-sending the
// path instruction — no retained dataset needed — and the result is
// unchanged.
func TestManifestPullFailover(t *testing.T) {
	const workers = 3
	ds := blobs(t, 4, 120, 6, 25, 4)
	cfg := core.Config{K: 4, L: 8, Rounds: 5, Seed: 9}
	dir := t.TempDir()
	m, err := dsio.Split(ds, dir, workers)
	if err != nil {
		t.Fatal(err)
	}

	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})

	clients := pullCluster(t, workers, dir)
	clients[1] = &flakyClient{inner: clients[1], healthy: 4}
	coord, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.DistributeManifest(m); err != nil {
		t.Fatal(err)
	}
	gotCenters, stats, err := coord.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers == 0 {
		t.Fatal("expected at least one failover")
	}
	requireBitIdentical(t, "post-failover pull Init centers", gotCenters, wantCenters)
}

// A pull load reads its rows straight from the part files, so it must run
// the finiteness check every push and in-process path runs before fitting:
// one NaN in a part fails the load, in either shard precision, with an
// error naming the file and the row — not a fit whose cost is NaN.
func TestManifestPullRejectsNonFinitePart(t *testing.T) {
	ds := blobs(t, 3, 40, 4, 20, 8)
	ds.X.Row(75)[2] = math.NaN() // 3 parts of 40 rows: part-0001.kmd row 35
	dir := t.TempDir()
	m, err := dsio.Split(ds, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		coord, err := NewCoordinator(pullCluster(t, 2, dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		coord.SetFloat32(f32)
		err = coord.DistributeManifest(m)
		if err == nil {
			_, res, st, err := coord.Fit(core.Config{K: 3, Seed: 2}, 5)
			t.Fatalf("float32=%v: a NaN part loaded; the fit ended with cost %v, seed cost %v, err %v",
				f32, res.Cost, st.SeedCost, err)
		}
		if !strings.Contains(err.Error(), "part-0001.kmd row 35") {
			t.Fatalf("float32=%v: error %q does not name the part file and row", f32, err)
		}
	}
}

// A zero-row part file (legal in externally produced manifests) must be
// skipped, not turned into a degenerate [0,0) segment the worker rejects;
// and a prefix re-roots every path without disturbing the row math.
func TestManifestSegsSkipsEmptyPartsAndPrefixes(t *testing.T) {
	m := &dsio.Manifest{
		Rows: 10, Cols: 2,
		Shards: []dsio.ManifestShard{
			{Path: "part-0000.kmd", Rows: 4},
			{Path: "part-0001.kmd", Rows: 0},
			{Path: "part-0002.kmd", Rows: 6},
		},
	}
	segs := manifestSegs(m, "big", 2, 8)
	want := []PathSeg{
		{Path: "big/part-0000.kmd", Lo: 2, Hi: 4},
		{Path: "big/part-0002.kmd", Lo: 0, Hi: 4},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v, want %+v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

// Workers without a data dir refuse path loads, and path traversal in a
// segment is rejected before any file is touched.
func TestLoadPathValidation(t *testing.T) {
	noDir := NewWorker()
	if err := noDir.LoadPath(LoadPathArgs{
		Ref: ShardRef{Fit: 1}, Segs: []PathSeg{{Path: "a.kmd", Lo: 0, Hi: 1}},
	}, &Ack{}); err == nil {
		t.Fatal("worker without a data dir accepted LoadPath")
	}

	w := NewWorker()
	w.SetDataDir(t.TempDir())
	for _, p := range []string{"../secret.kmd", "/etc/passwd", ""} {
		err := w.LoadPath(LoadPathArgs{
			Ref: ShardRef{Fit: 1}, Segs: []PathSeg{{Path: p, Lo: 0, Hi: 1}},
		}, &Ack{})
		if err == nil {
			t.Fatalf("accepted path %q", p)
		}
		if !strings.Contains(err.Error(), "escapes") {
			t.Fatalf("path %q: unexpected error %v", p, err)
		}
	}

	// Out-of-range segment rows against a real file.
	ds := blobs(t, 2, 10, 3, 10, 5)
	dir := t.TempDir()
	if _, err := dsio.Split(ds, dir, 1); err != nil {
		t.Fatal(err)
	}
	w2 := NewWorker()
	w2.SetDataDir(dir)
	if err := w2.LoadPath(LoadPathArgs{
		Ref: ShardRef{Fit: 1}, Segs: []PathSeg{{Path: "part-0000.kmd", Lo: 0, Hi: ds.N() + 1}},
	}, &Ack{}); err == nil {
		t.Fatal("accepted a segment past the end of the file")
	}
}
