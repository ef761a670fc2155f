package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kmeansll"
	"kmeansll/internal/rng"
)

// newTestServer builds a Server with small limits and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// do drives the server through httptest, decoding the JSON response into
// out when non-nil, and returns the status code.
func do(t *testing.T, s *Server, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// blobPoints returns n points around k well-separated centers; point i
// belongs to component i%k, and component c sits at (100c, 100c, ...).
func blobPoints(n, d, k int, seed uint64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, n)
	for i := range out {
		c := float64(i % k)
		p := make([]float64, d)
		for j := range p {
			p[j] = 100*c + r.NormFloat64()
		}
		out[i] = p
	}
	return out
}

// waitForJob polls GET /v1/jobs/{id} until the job settles.
func waitForJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := do(t, s, "GET", "/v1/jobs/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle in time", id)
	return JobStatus{}
}

// TestFitPredictEndToEnd is the acceptance-criteria flow: POST /v1/fit on a
// Gaussian-mixture dataset, poll the job to completion, then predict —
// including concurrent predict requests (run with -race).
func TestFitPredictEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{FitWorkers: 2})
	const k, d = 4, 3
	points := blobPoints(400, d, k, 1)

	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:  "e2e",
		Points: points,
		Config: fitConfig{K: k, Seed: 7},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	if job.State != JobQueued && job.State != JobRunning {
		t.Fatalf("fresh job state %q", job.State)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobDone {
		t.Fatalf("job ended %q (err %q)", st.State, st.Error)
	}
	if st.Version != 1 || st.Cost <= 0 {
		t.Fatalf("job result version=%d cost=%g", st.Version, st.Cost)
	}

	// The model must now serve. Each true component center must predict to
	// a distinct cluster, and every training point must agree with its
	// component's assignment (the blobs are separated by ~100σ).
	var meta modelSummary
	if code := do(t, s, "GET", "/v1/models/e2e?centers=true", nil, &meta); code != http.StatusOK {
		t.Fatalf("GET model: status %d", code)
	}
	if meta.K != k || meta.Dim != d || len(meta.Centers) != k {
		t.Fatalf("served model k=%d dim=%d centers=%d", meta.K, meta.Dim, len(meta.Centers))
	}

	componentReps := blobPoints(k, d, k, 2) // one clean point per component
	var rep predictResponse
	if code := do(t, s, "POST", "/v1/models/e2e/predict", pointsRequest{Points: componentReps}, &rep); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	seen := map[int]bool{}
	for _, a := range rep.Assignments {
		if a < 0 || a >= k {
			t.Fatalf("assignment %d out of range", a)
		}
		seen[a] = true
	}
	if len(seen) != k {
		t.Fatalf("component representatives mapped to %d distinct clusters, want %d", len(seen), k)
	}

	var wholeSet predictResponse
	do(t, s, "POST", "/v1/models/e2e/predict", pointsRequest{Points: points}, &wholeSet)
	for i, a := range wholeSet.Assignments {
		if want := rep.Assignments[i%k]; a != want {
			t.Fatalf("training point %d assigned to %d, its component maps to %d", i, a, want)
		}
	}

	// Concurrent predict requests against the live registry.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := blobPoints(32, d, k, uint64(100+g))
			for i := 0; i < 20; i++ {
				var r predictResponse
				if code := do(t, s, "POST", "/v1/models/e2e/predict", pointsRequest{Points: q}, &r); code != http.StatusOK {
					t.Errorf("goroutine %d: predict status %d", g, code)
					return
				}
				if len(r.Assignments) != len(q) {
					t.Errorf("goroutine %d: %d assignments for %d points", g, len(r.Assignments), len(q))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFitWithServerSideGenerate exercises the generate path end to end.
func TestFitWithServerSideGenerate(t *testing.T) {
	s := newTestServer(t, Config{})
	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:    "gen",
		Generate: &GenerateSpec{N: 500, D: 5, K: 3, Seed: 9},
		Config:   fitConfig{K: 3, Init: "kmeans++", Optimizer: &kmeansll.OptimizerSpec{Type: "lloyd", Kernel: "elkan"}},
		Restarts: 2,
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("fit: status %d", code)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("job ended %q (err %q)", st.State, st.Error)
	}
	var meta modelSummary
	if code := do(t, s, "GET", "/v1/models/gen", nil, &meta); code != http.StatusOK || meta.K != 3 || meta.Dim != 5 {
		t.Fatalf("served model status=%d k=%d dim=%d", code, meta.K, meta.Dim)
	}
}

// TestMalformedPayloads is the malformed-payload table test: every row must
// produce the expected 4xx, never a 200 or a panic.
func TestMalformedPayloads(t *testing.T) {
	s := newTestServer(t, Config{MaxRequestBytes: 4096, MaxBatchPoints: 8})
	do(t, s, "PUT", "/v1/models/m", putModelRequest{Centers: [][]float64{{0, 0}, {10, 10}}}, nil)

	tests := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"predict bad json", "POST", "/v1/models/m/predict", `{"points": [[1,`, http.StatusBadRequest},
		{"predict unknown field", "POST", "/v1/models/m/predict", `{"pts": [[1,2]]}`, http.StatusBadRequest},
		{"predict trailing data", "POST", "/v1/models/m/predict", `{"points": [[1,2]]} extra`, http.StatusBadRequest},
		{"predict trailing bracket", "POST", "/v1/models/m/predict", `{"points": [[1,2]]}]`, http.StatusBadRequest},
		{"upload trailing bracket", "PUT", "/v1/models/m2", `{"centers": [[0,0]]}]`, http.StatusBadRequest},
		{"rollback trailing brace", "POST", "/v1/models/m/rollback", `{"version": 1}}`, http.StatusBadRequest},
		{"fit trailing brace", "POST", "/v1/fit", `{"model": "f", "points": [[1],[2]], "config": {"k": 1}}}`, http.StatusBadRequest},
		{"predict empty batch", "POST", "/v1/models/m/predict", `{"points": []}`, http.StatusBadRequest},
		{"predict wrong dim", "POST", "/v1/models/m/predict", `{"points": [[1,2,3]]}`, http.StatusBadRequest},
		{"predict ragged batch", "POST", "/v1/models/m/predict", `{"points": [[1,2],[1]]}`, http.StatusBadRequest},
		{"predict NaN literal", "POST", "/v1/models/m/predict", `{"points": [[NaN,1]]}`, http.StatusBadRequest},
		{"predict over batch cap", "POST", "/v1/models/m/predict",
			pointsRequest{Points: blobPoints(9, 2, 1, 1)}, http.StatusBadRequest},
		{"predict oversized body", "POST", "/v1/models/m/predict",
			pointsRequest{Points: blobPoints(8, 40, 1, 1)}, http.StatusRequestEntityTooLarge},
		{"predict missing model", "POST", "/v1/models/nope/predict", `{"points": [[1,2]]}`, http.StatusNotFound},
		{"predict bad version", "POST", "/v1/models/m/predict?version=x", `{"points": [[1,2]]}`, http.StatusBadRequest},
		{"predict version trailing junk", "POST", "/v1/models/m/predict?version=1junk", `{"points": [[1,2]]}`, http.StatusBadRequest},
		{"predict absent version", "POST", "/v1/models/m/predict?version=99", `{"points": [[1,2]]}`, http.StatusNotFound},
		{"transform wrong dim", "POST", "/v1/models/m/transform", `{"points": [[1]]}`, http.StatusBadRequest},
		{"upload no centers", "PUT", "/v1/models/m2", `{"centers": []}`, http.StatusBadRequest},
		{"upload ragged centers", "PUT", "/v1/models/m2", `{"centers": [[1,2],[3]]}`, http.StatusBadRequest},
		{"upload bad name", "PUT", "/v1/models/bad%2Fname", `{"centers": [[1]]}`, http.StatusBadRequest},
		{"fit no model name", "POST", "/v1/fit", `{"config": {"k": 2}, "points": [[1],[2]]}`, http.StatusBadRequest},
		{"fit k missing", "POST", "/v1/fit", `{"model": "f", "points": [[1],[2]]}`, http.StatusBadRequest},
		{"fit bad init", "POST", "/v1/fit",
			`{"model": "f", "points": [[1],[2]], "config": {"k": 1, "init": "zzz"}}`, http.StatusBadRequest},
		{"fit bad kernel", "POST", "/v1/fit",
			`{"model": "f", "points": [[1],[2]], "config": {"k": 1, "optimizer": {"kernel": "zzz"}}}`, http.StatusBadRequest},
		{"fit removed config.kernel", "POST", "/v1/fit",
			`{"model": "f", "points": [[1],[2]], "config": {"k": 1, "kernel": "elkan"}}`, http.StatusBadRequest},
		{"fit no points", "POST", "/v1/fit", `{"model": "f", "config": {"k": 1}}`, http.StatusBadRequest},
		{"fit points and generate", "POST", "/v1/fit",
			`{"model": "f", "points": [[1]], "generate": {"n": 4, "d": 1, "k": 1}, "config": {"k": 1}}`, http.StatusBadRequest},
		{"fit generate bad shape", "POST", "/v1/fit",
			`{"model": "f", "generate": {"n": 0, "d": 1, "k": 1}, "config": {"k": 1}}`, http.StatusBadRequest},
		{"fit generate huge dims", "POST", "/v1/fit",
			`{"model": "f", "generate": {"n": 8, "d": 100000000, "k": 1}, "config": {"k": 1}}`, http.StatusBadRequest},
		{"fit generate k over n", "POST", "/v1/fit",
			`{"model": "f", "generate": {"n": 4, "d": 1, "k": 5}, "config": {"k": 1}}`, http.StatusBadRequest},
		{"fit k over points", "POST", "/v1/fit",
			`{"model": "f", "points": [[1],[2]], "config": {"k": 3}}`, http.StatusBadRequest},
		{"fit absurd restarts", "POST", "/v1/fit",
			`{"model": "f", "points": [[1],[2]], "config": {"k": 1}, "restarts": 1000000000}`, http.StatusBadRequest},
		{"rollback absent version", "POST", "/v1/models/m/rollback", `{"version": 42}`, http.StatusNotFound},
		{"stream bad spec", "POST", "/v1/streams/s1", `{"k": 0, "dim": 2}`, http.StatusBadRequest},
		{"ingest missing stream", "POST", "/v1/streams/nope/ingest", `{"points": [[1,2]]}`, http.StatusNotFound},
		{"job missing", "GET", "/v1/jobs/job-999", nil, http.StatusNotFound},
		{"delete missing model", "DELETE", "/v1/models/nope", nil, http.StatusNotFound},
	}
	for _, tc := range tests {
		var resp errorResponse
		code := do(t, s, tc.method, tc.path, tc.body, &resp)
		if code != tc.want {
			t.Errorf("%s: %s %s returned %d, want %d", tc.name, tc.method, tc.path, code, tc.want)
		}
		if resp.Error == "" {
			t.Errorf("%s: no error message in response", tc.name)
		}
	}
}

// TestRegistryVersionSwapUnderConcurrentReaders hammers Get/predict while a
// writer publishes new versions; run with -race. Readers must always see a
// complete model and monotonically non-decreasing versions.
func TestRegistryVersionSwapUnderConcurrentReaders(t *testing.T) {
	s := newTestServer(t, Config{MaxHistory: 4})
	reg := s.Registry()
	pub := func(off float64) {
		m, err := kmeansll.NewModel([][]float64{{off, off}, {off + 50, off + 50}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Publish("hot", m, "test"); err != nil {
			t.Fatal(err)
		}
	}
	pub(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				mv, ok := reg.Get("hot")
				if !ok {
					t.Error("model vanished mid-swap")
					return
				}
				if mv.Version < last {
					t.Errorf("version went backwards: %d after %d", mv.Version, last)
					return
				}
				last = mv.Version
				if got := mv.Model.PredictBatch([][]float64{{0, 0}, {1000, 1000}}, 1); len(got) != 2 {
					t.Errorf("predict against snapshot: %d results", len(got))
					return
				}
			}
		}()
	}
	// HTTP readers alongside direct ones.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rep predictResponse
				if code := do(t, s, "POST", "/v1/models/hot/predict", `{"points": [[1,2]]}`, &rep); code != http.StatusOK {
					t.Errorf("HTTP predict during swap: %d", code)
					return
				}
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		pub(float64(i))
	}
	close(stop)
	wg.Wait()

	if vs := reg.Versions("hot"); len(vs) != 4 {
		t.Fatalf("history kept %d versions, want maxHistory=4", len(vs))
	} else if vs[len(vs)-1].Version != 201 {
		t.Fatalf("newest retained version %d, want 201", vs[len(vs)-1].Version)
	}
}

// TestModelLifecycle covers upload → get → versions → rollback → delete.
func TestModelLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	var v1, v2 modelSummary
	if code := do(t, s, "PUT", "/v1/models/life", putModelRequest{Centers: [][]float64{{0}, {10}}}, &v1); code != http.StatusCreated {
		t.Fatalf("upload v1: %d", code)
	}
	if code := do(t, s, "PUT", "/v1/models/life", putModelRequest{Centers: [][]float64{{5}, {15}, {25}}}, &v2); code != http.StatusCreated {
		t.Fatalf("upload v2: %d", code)
	}
	if v1.Version != 1 || v2.Version != 2 || v2.K != 3 {
		t.Fatalf("versions %d,%d k=%d", v1.Version, v2.Version, v2.K)
	}

	var vers struct {
		Versions []modelSummary `json:"versions"`
	}
	do(t, s, "GET", "/v1/models/life/versions", nil, &vers)
	if len(vers.Versions) != 2 {
		t.Fatalf("%d retained versions, want 2", len(vers.Versions))
	}

	// Old version stays addressable while v2 is current.
	var rep predictResponse
	do(t, s, "POST", "/v1/models/life/predict?version=1", `{"points": [[9]]}`, &rep)
	if rep.Version != 1 || rep.Assignments[0] != 1 {
		t.Fatalf("pinned-version predict: v%d assign %v", rep.Version, rep.Assignments)
	}

	var rolled modelSummary
	if code := do(t, s, "POST", "/v1/models/life/rollback", `{"version": 1}`, &rolled); code != http.StatusOK {
		t.Fatalf("rollback: %d", code)
	}
	if rolled.Version != 3 || rolled.K != 2 {
		t.Fatalf("rollback produced v%d k=%d, want v3 k=2", rolled.Version, rolled.K)
	}

	if code := do(t, s, "DELETE", "/v1/models/life", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := do(t, s, "GET", "/v1/models/life", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", code)
	}
}

// TestTransformRoundTrip checks /transform distances against direct
// computation.
func TestTransformRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	centers := [][]float64{{0, 0}, {3, 4}}
	do(t, s, "PUT", "/v1/models/tr", putModelRequest{Centers: centers}, nil)
	var rep transformResponse
	if code := do(t, s, "POST", "/v1/models/tr/transform", `{"points": [[0,0],[3,0]]}`, &rep); code != http.StatusOK {
		t.Fatalf("transform: %d", code)
	}
	want := [][]float64{{0, 25}, {9, 16}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(rep.Distances[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("distances[%d][%d] = %g, want %g", i, j, rep.Distances[i][j], want[i][j])
			}
		}
	}
}

// TestPredictPaletteMatchesModel posts quantization bodies — 4096 integer
// RGB pixels each, two at once — against a registered palette of 256
// well-separated colours and checks every assignment against
// Model.Predict. At this shape (k ≥ 256, d ≤ 4) PredictBatch runs the
// blocked panel scan where the AVX2 panel kernel runs and the kd-tree
// where none does (km_purego), so the pooled handler serves both regimes
// across the build legs.
func TestPredictPaletteMatchesModel(t *testing.T) {
	var palette [][]float64
	for r := 0; r < 8; r++ {
		for g := 0; g < 8; g++ {
			for b := 0; b < 4; b++ {
				palette = append(palette, []float64{float64(16 + 32*r), float64(16 + 32*g), float64(32 + 64*b)})
			}
		}
	}
	model, err := kmeansll.NewModel(palette)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	if code := do(t, s, "PUT", "/v1/models/palette", putModelRequest{Centers: palette}, nil); code != http.StatusCreated {
		t.Fatalf("PUT palette: status %d", code)
	}
	// Each pixel is a palette colour moved by at most 7 per channel, well
	// inside its colour's half-spacing of 16, so its nearest colour is
	// unambiguous.
	r := rng.New(17)
	bodies := make([][][]float64, 2)
	for i := range bodies {
		bodies[i] = make([][]float64, 4096)
		for j := range bodies[i] {
			c := palette[r.Intn(len(palette))]
			bodies[i][j] = []float64{c[0] + float64(r.Intn(15)-7), c[1] + float64(r.Intn(15)-7), c[2] + float64(r.Intn(15)-7)}
		}
	}
	var wg sync.WaitGroup
	for i, pixels := range bodies {
		body, err := json.Marshal(map[string]any{"points": pixels})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models/palette/predict", bytes.NewReader(body)))
			var rep predictResponse
			if rec.Code != http.StatusOK {
				t.Errorf("body %d: predict status %d: %s", i, rec.Code, rec.Body)
				return
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Errorf("body %d: decoding response: %v", i, err)
				return
			}
			if len(rep.Assignments) != len(pixels) {
				t.Errorf("body %d: %d assignments for %d pixels", i, len(rep.Assignments), len(pixels))
				return
			}
			for j, p := range pixels {
				if want := model.Predict(p); rep.Assignments[j] != want {
					t.Errorf("body %d pixel %d %v: assigned %d, Predict says %d", i, j, p, rep.Assignments[j], want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStreamingIngestRefreshesModel drives the online ingest loop: a stream
// refits its registry model every RefitEvery points, so the served centers
// track the stream.
func TestStreamingIngestRefreshesModel(t *testing.T) {
	s := newTestServer(t, Config{})
	var st StreamStatus
	code := do(t, s, "POST", "/v1/streams/clicks", StreamSpec{K: 3, Dim: 2, RefitEvery: 50, Seed: 11}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create stream: %d", code)
	}
	if code := do(t, s, "POST", "/v1/streams/clicks", StreamSpec{K: 3, Dim: 2}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", code)
	}

	// Before any refit the stream has published nothing.
	if code := do(t, s, "GET", "/v1/models/clicks", nil, nil); code != http.StatusNotFound {
		t.Fatalf("model before refit: %d", code)
	}

	points := blobPoints(120, 2, 3, 5)
	var ing ingestResponse
	if code := do(t, s, "POST", "/v1/streams/clicks/ingest", pointsRequest{Points: points}, &ing); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	if ing.TotalPoints != 120 || ing.Refits != 2 {
		t.Fatalf("ingest total=%d refits=%d, want 120 and 2", ing.TotalPoints, ing.Refits)
	}

	var meta modelSummary
	if code := do(t, s, "GET", "/v1/models/clicks", nil, &meta); code != http.StatusOK {
		t.Fatalf("stream model: %d", code)
	}
	if meta.K != 3 || meta.Dim != 2 || meta.Version != 2 || !strings.HasPrefix(meta.Source, "stream:") {
		t.Fatalf("stream model k=%d dim=%d v%d source=%q", meta.K, meta.Dim, meta.Version, meta.Source)
	}

	// Forced refit publishes another version even mid-window.
	var forced modelSummary
	if code := do(t, s, "POST", "/v1/streams/clicks/refit", nil, &forced); code != http.StatusOK {
		t.Fatalf("refit: %d", code)
	}
	if forced.Version != 3 {
		t.Fatalf("forced refit version %d, want 3", forced.Version)
	}

	do(t, s, "GET", "/v1/streams/clicks", nil, &st)
	if st.Points != 120 || st.Refits != 3 {
		t.Fatalf("stream status points=%d refits=%d", st.Points, st.Refits)
	}

	// The continuously refreshed model serves predictions.
	var rep predictResponse
	if code := do(t, s, "POST", "/v1/models/clicks/predict", pointsRequest{Points: points[:6]}, &rep); code != http.StatusOK {
		t.Fatalf("predict on stream model: %d", code)
	}
}

// TestStatsEndpoint checks the virtual-table counters: rows appear per
// endpoint pattern with request and error counts.
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/v1/models/st", putModelRequest{Centers: [][]float64{{0}}}, nil)
	for i := 0; i < 5; i++ {
		do(t, s, "POST", "/v1/models/st/predict", `{"points": [[1]]}`, nil)
	}
	do(t, s, "POST", "/v1/models/st/predict", `{"points": [[1,2]]}`, nil) // a 400
	do(t, s, "GET", "/healthz", nil, nil)

	var stats sysEndpointsResponse
	if code := do(t, s, "GET", "/v1/sys/endpoints", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	rows := map[string]EndpointStats{}
	for _, row := range stats.Endpoints {
		rows[row.Endpoint] = row
	}
	pr := rows["POST /v1/models/{name}/predict"]
	if pr.Requests != 6 || pr.Errors != 1 {
		t.Fatalf("predict row: %+v", pr)
	}
	if pr.QPS <= 0 || pr.MaxMillis < 0 {
		t.Fatalf("predict row rates: %+v", pr)
	}
	if rows["GET /healthz"].Requests != 1 {
		t.Fatalf("healthz row: %+v", rows["GET /healthz"])
	}
	var reg struct {
		Models []RegistrySysRow `json:"models"`
	}
	if code := do(t, s, "GET", "/v1/sys/registry", nil, &reg); code != http.StatusOK {
		t.Fatalf("registry: %d", code)
	}
	if len(reg.Models) != 1 || reg.Models[0].Versions != 1 {
		t.Fatalf("registry rows: %+v", reg.Models)
	}
}

// TestRegistryPersistence round-trips SaveDir/LoadDir through a temp dir.
func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0)
	for i, centers := range [][][]float64{
		{{0, 0}, {1, 1}},
		{{5}, {6}, {7}},
	} {
		m, err := kmeansll.NewModel(centers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Publish(fmt.Sprintf("m%d", i), m, "test"); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	fresh := NewRegistry(0)
	n, err := fresh.LoadDir(dir)
	if err != nil || n != 2 {
		t.Fatalf("LoadDir: n=%d err=%v", n, err)
	}
	mv, ok := fresh.Get("m1")
	if !ok || mv.Model.K() != 3 || mv.Model.Dim() != 1 || mv.Source != "file" {
		t.Fatalf("reloaded m1: ok=%v %+v", ok, mv)
	}
	// Missing dir is a clean no-op (first boot).
	if n, err := fresh.LoadDir(dir + "/nope"); n != 0 || err != nil {
		t.Fatalf("missing dir: n=%d err=%v", n, err)
	}
}

// TestJobManagerShutdown verifies Stop is clean and SubmitSpec-after-Stop
// fails.
func TestJobManagerShutdown(t *testing.T) {
	reg := NewRegistry(0)
	jm := NewJobManager(reg, 1, 2)
	j, _, err := jm.SubmitSpec(FitSpec{Model: "shut", Points: blobPoints(50, 2, 2, 1), Config: kmeansll.Config{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	jm.Stop()
	jm.Stop() // idempotent
	if _, _, err := jm.SubmitSpec(FitSpec{Model: "late", Points: blobPoints(10, 2, 2, 1), Config: kmeansll.Config{K: 2}}); err == nil {
		t.Fatal("SubmitSpec after Stop succeeded")
	}
	st := j.Status()
	if st.State != JobDone && st.State != JobCanceled {
		t.Fatalf("job after shutdown: %q (err %q)", st.State, st.Error)
	}
}
