package server

import (
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
)

// fetchCenters pulls a model's centers out of the registry via the API.
func fetchCenters(t *testing.T, s *Server, name string) [][]float64 {
	t.Helper()
	var sum modelSummary
	if code := do(t, s, "GET", "/v1/models/"+name+"?centers=true", nil, &sum); code != http.StatusOK {
		t.Fatalf("GET model %s: status %d", name, code)
	}
	return sum.Centers
}

func requireSameCenters(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centers, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: center %d dim %d differs: %v vs %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// A fit job naming a .kmd dataset must produce the same model, bit for bit,
// as the same fit with the points inlined in the request: the mmap'd load
// path changes where the bytes come from, not one float of the answer.
func TestPathFitMatchesInlineFit(t *testing.T) {
	const k, d, n = 4, 3, 400
	points := blobPoints(n, d, k, 1)
	dataDir := t.TempDir()
	if err := dsio.Save(filepath.Join(dataDir, "train.kmd"), geom.NewDataset(geom.FromRows(points))); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{FitWorkers: 2, DataDir: dataDir})
	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:   "frompath",
		Dataset: &DatasetSpec{Path: "train.kmd"},
		Config:  fitConfig{K: k, Seed: 7},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit (dataset): status %d", code)
	}
	if job.NumPoints != n || job.Dataset != "train.kmd" {
		t.Fatalf("job reported n=%d dataset=%q", job.NumPoints, job.Dataset)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("path fit ended %q (err %q)", st.State, st.Error)
	}

	code = do(t, s, "POST", "/v1/fit", fitRequest{
		Model:  "inline",
		Points: points,
		Config: fitConfig{K: k, Seed: 7},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit (inline): status %d", code)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("inline fit ended %q (err %q)", st.State, st.Error)
	}

	requireSameCenters(t, "path vs inline",
		fetchCenters(t, s, "frompath"), fetchCenters(t, s, "inline"))
}

// A dist-backend fit over a shard manifest (pull path: loopback workers mmap
// the part files) must match the dist fit with inline points (push path) at
// the same shard count. The manifest deliberately sits in a subdirectory of
// the data dir: part paths must be re-rooted against the data dir before
// they cross the wire, or workers rooted there cannot find them.
func TestManifestDistFitMatchesPush(t *testing.T) {
	const k, d, n, shards = 3, 4, 300, 3
	points := blobPoints(n, d, k, 2)
	ds := geom.NewDataset(geom.FromRows(points))
	dataDir := t.TempDir()
	// 5 parts ≠ 3 shards: spans straddle files.
	if _, err := dsio.Split(ds, filepath.Join(dataDir, "big"), 5); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{FitWorkers: 2, DataDir: dataDir})
	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:   "pulled",
		Dataset: &DatasetSpec{Path: "big/manifest.json"},
		Config:  fitConfig{K: k, Seed: 5},
		Backend: "dist", Shards: shards,
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit (manifest dist): status %d", code)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("manifest dist fit ended %q (err %q)", st.State, st.Error)
	}

	code = do(t, s, "POST", "/v1/fit", fitRequest{
		Model:   "pushed",
		Points:  points,
		Config:  fitConfig{K: k, Seed: 5},
		Backend: "dist", Shards: shards,
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit (push dist): status %d", code)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("push dist fit ended %q (err %q)", st.State, st.Error)
	}

	requireSameCenters(t, "manifest pull vs push",
		fetchCenters(t, s, "pulled"), fetchCenters(t, s, "pushed"))
}

// A manifest dist job over a part file holding a NaN must fail, naming the
// file, and publish nothing: the workers validate what they pull, as every
// push and local path validates what it loads.
func TestManifestDistFitRejectsNonFinitePart(t *testing.T) {
	points := blobPoints(90, 3, 3, 4)
	points[50][1] = math.NaN() // 3 parts of 30 rows: part-0001.kmd row 20
	dataDir := t.TempDir()
	if _, err := dsio.Split(geom.NewDataset(geom.FromRows(points)), filepath.Join(dataDir, "bad"), 3); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{FitWorkers: 1, DataDir: dataDir})
	var job JobStatus
	if code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:   "nan",
		Dataset: &DatasetSpec{Path: "bad/manifest.json"},
		Config:  fitConfig{K: 3, Seed: 1},
		Backend: "dist", Shards: 2,
	}, &job); code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit (manifest dist): status %d", code)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobFailed || !strings.Contains(st.Error, "part-0001.kmd row 20") {
		t.Fatalf("NaN manifest fit ended %q (err %q), want failed naming the part and row", st.State, st.Error)
	}
	if code := do(t, s, "GET", "/v1/models/nan", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET the failed fit's model: status %d, want 404", code)
	}
}

// Dataset paths are strictly validated at submission time.
func TestPathFitValidation(t *testing.T) {
	dataDir := t.TempDir()
	if err := dsio.Save(filepath.Join(dataDir, "ok.kmd"),
		geom.NewDataset(geom.FromRows(blobPoints(10, 2, 2, 3)))); err != nil {
		t.Fatal(err)
	}

	noDir := newTestServer(t, Config{})
	var errResp errorResponse
	if code := do(t, noDir, "POST", "/v1/fit", fitRequest{
		Model: "m", Dataset: &DatasetSpec{Path: "ok.kmd"}, Config: fitConfig{K: 2},
	}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("server without -data-dir accepted a dataset path: status %d", code)
	}

	s := newTestServer(t, Config{DataDir: dataDir})
	for name, req := range map[string]fitRequest{
		"escaping path": {Model: "m", Dataset: &DatasetSpec{Path: "../ok.kmd"}, Config: fitConfig{K: 2}},
		"absolute path": {Model: "m", Dataset: &DatasetSpec{Path: filepath.Join(dataDir, "ok.kmd")}, Config: fitConfig{K: 2}},
		"missing file":  {Model: "m", Dataset: &DatasetSpec{Path: "nope.kmd"}, Config: fitConfig{K: 2}},
		"bad extension": {Model: "m", Dataset: &DatasetSpec{Path: "ok.csv"}, Config: fitConfig{K: 2}},
		"k over rows":   {Model: "m", Dataset: &DatasetSpec{Path: "ok.kmd"}, Config: fitConfig{K: 11}},
		"two sources": {Model: "m", Dataset: &DatasetSpec{Path: "ok.kmd"},
			Points: [][]float64{{1, 2}}, Config: fitConfig{K: 1}},
	} {
		if code := do(t, s, "POST", "/v1/fit", req, &errResp); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (err %q)", name, code, errResp.Error)
		}
	}
}
