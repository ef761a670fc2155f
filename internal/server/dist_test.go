package server

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"kmeansll"
)

// TestDistBackendFitEndToEnd drives POST /v1/fit with backend "dist": the
// job must shard the training set across an in-process loopback distkm
// cluster, publish the fitted model, and serve predictions from it.
func TestDistBackendFitEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{FitWorkers: 1})
	const k, d = 4, 3
	points := blobPoints(600, d, k, 7)

	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", map[string]any{
		"model":   "distmodel",
		"points":  points,
		"config":  map[string]any{"k": k, "seed": 11},
		"backend": "dist",
		"shards":  3,
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	if job.Backend != "dist" {
		t.Fatalf("job backend %q, want dist", job.Backend)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobDone {
		t.Fatalf("dist job ended %q (%s)", st.State, st.Error)
	}
	if st.Version != 1 || st.K != k {
		t.Fatalf("published version %d k %d", st.Version, st.K)
	}

	// The distributed fit must agree with the in-process fit on quality:
	// same well-separated blobs, same k — costs within a few percent.
	local, err := kmeansll.Cluster(points, kmeansll.Config{K: k, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Cost-local.Cost) > 0.05*(1+local.Cost) {
		t.Fatalf("dist cost %v far from local cost %v", st.Cost, local.Cost)
	}

	var pred predictResponse
	code = do(t, s, "POST", "/v1/models/distmodel/predict",
		map[string]any{"points": points[:8]}, &pred)
	if code != http.StatusOK {
		t.Fatalf("predict against dist-fit model: status %d", code)
	}
	if len(pred.Assignments) != 8 {
		t.Fatalf("got %d assignments", len(pred.Assignments))
	}
	// Points i and i+k come from the same blob and must co-cluster.
	for i := 0; i+k < 8; i++ {
		if pred.Assignments[i] != pred.Assignments[i+k] {
			t.Fatalf("same-blob points %d and %d assigned to different clusters", i, i+k)
		}
	}
}

// TestDistBackendRestartsPickBest exercises the restart loop on the dist
// path (ClusterBest semantics: best of `restarts` seeds).
func TestDistBackendRestartsPickBest(t *testing.T) {
	s := newTestServer(t, Config{FitWorkers: 1})
	points := blobPoints(300, 2, 3, 9)
	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", map[string]any{
		"model":    "distbest",
		"points":   points,
		"config":   map[string]any{"k": 3, "seed": 1},
		"backend":  "dist",
		"restarts": 3,
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobDone {
		t.Fatalf("job ended %q (%s)", st.State, st.Error)
	}
}

func TestDistBackendValidation(t *testing.T) {
	s := newTestServer(t, Config{FitWorkers: 1})
	points := blobPoints(50, 2, 2, 3)

	cases := []struct {
		name string
		body map[string]any
		want string // substring the error must carry; "" checks only the status
	}{
		{"unknown backend", map[string]any{
			"model": "m", "points": points,
			"config": map[string]any{"k": 2}, "backend": "hadoop",
		}, ""},
		{"too many shards", map[string]any{
			"model": "m", "points": points,
			"config": map[string]any{"k": 2}, "backend": "dist", "shards": maxDistShards + 1,
		}, ""},
		{"negative shards", map[string]any{
			"model": "m", "points": points,
			"config": map[string]any{"k": 2}, "backend": "dist", "shards": -1,
		}, ""},
		{"dist with non-kmeansll init", map[string]any{
			"model": "m", "points": points,
			"config": map[string]any{"k": 2, "init": "random"}, "backend": "dist",
		}, ""},
		{"dist with elkan kernel", map[string]any{
			"model": "m", "points": points, "backend": "dist",
			"config": map[string]any{"k": 2, "optimizer": map[string]any{"type": "lloyd", "kernel": "elkan"}},
		}, "lloyd:naive"},
		{"dist with hamerly kernel", map[string]any{
			"model": "m", "points": points, "backend": "dist",
			"config": map[string]any{"k": 2, "optimizer": map[string]any{"type": "lloyd", "kernel": "hamerly"}},
		}, "lloyd:naive"},
	}
	for _, tc := range cases {
		var errResp errorResponse
		if code := do(t, s, "POST", "/v1/fit", tc.body, &errResp); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (error %q)", tc.name, code, errResp.Error)
		}
		if !strings.Contains(errResp.Error, tc.want) {
			t.Fatalf("%s: error %q, want it to contain %q", tc.name, errResp.Error, tc.want)
		}
	}
}
