package server

import (
	"math"
	"net/http"
	"testing"

	"kmeansll"
)

// TestFitPrecisionF32 drives a single-precision fit through the HTTP API:
// config.precision="f32" must be accepted, fit, serve predictions, and
// surface the precision in the job status and model metadata.
func TestFitPrecisionF32(t *testing.T) {
	s := newTestServer(t, Config{})
	const k, d = 3, 4
	points := blobPoints(300, d, k, 3)

	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model:  "prec32",
		Points: points,
		Config: fitConfig{K: k, Seed: 5, Precision: "f32"},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	if job.PrecisionRequested != "f32" {
		t.Fatalf("queued job precision_requested %q, want f32", job.PrecisionRequested)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobDone {
		t.Fatalf("f32 fit ended %q (err %q)", st.State, st.Error)
	}
	if st.Cost <= 0 {
		t.Fatalf("f32 fit cost %g", st.Cost)
	}
	if st.PrecisionRequested != "f32" || st.PrecisionEffective != "f32" {
		t.Fatalf("finished job precision requested=%q effective=%q, want f32/f32",
			st.PrecisionRequested, st.PrecisionEffective)
	}

	var meta modelSummary
	if code := do(t, s, "GET", "/v1/models/prec32", nil, &meta); code != http.StatusOK {
		t.Fatalf("GET model: status %d", code)
	}
	if meta.Precision != "f32" || meta.PrecisionRequested != "f32" || meta.PrecisionEffective != "f32" {
		t.Fatalf("model precision=%q requested=%q effective=%q, want f32 throughout",
			meta.Precision, meta.PrecisionRequested, meta.PrecisionEffective)
	}

	var rep predictResponse
	if code := do(t, s, "POST", "/v1/models/prec32/predict", pointsRequest{Points: points[:16]}, &rep); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	if len(rep.Assignments) != 16 {
		t.Fatalf("%d assignments for 16 points", len(rep.Assignments))
	}
}

// TestFitPrecisionValidation covers the reject path: an unknown precision
// string must be a 400.
func TestFitPrecisionValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	points := blobPoints(60, 2, 2, 4)

	if code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model: "badprec", Points: points,
		Config: fitConfig{K: 2, Precision: "f16"},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown precision accepted: status %d", code)
	}
}

// TestDistBackendFitPrecisionF32 runs a dist-backend fit at f32: the loopback
// cluster's workers store float32 shards, the published model reports f32
// end to end (job status, /v1/models, /v1/sys/registry), and the fit quality
// matches the in-process float32 fit.
func TestDistBackendFitPrecisionF32(t *testing.T) {
	s := newTestServer(t, Config{FitWorkers: 1})
	const k, d = 4, 3
	points := blobPoints(600, d, k, 7)

	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model: "distprec32", Points: points, Backend: "dist", Shards: 3,
		Config: fitConfig{K: k, Seed: 11, Precision: "f32"},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobDone {
		t.Fatalf("dist f32 job ended %q (%s)", st.State, st.Error)
	}
	if st.PrecisionRequested != "f32" || st.PrecisionEffective != "f32" {
		t.Fatalf("dist job precision requested=%q effective=%q, want f32/f32",
			st.PrecisionRequested, st.PrecisionEffective)
	}

	var meta modelSummary
	if code := do(t, s, "GET", "/v1/models/distprec32", nil, &meta); code != http.StatusOK {
		t.Fatalf("GET model: status %d", code)
	}
	if meta.Precision != "f32" || meta.PrecisionEffective != "f32" {
		t.Fatalf("dist model precision=%q effective=%q, want f32",
			meta.Precision, meta.PrecisionEffective)
	}

	var sys struct {
		Models []RegistrySysRow `json:"models"`
	}
	if code := do(t, s, "GET", "/v1/sys/registry", nil, &sys); code != http.StatusOK {
		t.Fatalf("GET /v1/sys/registry: status %d", code)
	}
	found := false
	for _, row := range sys.Models {
		if row.Model == "distprec32" {
			found = true
			if row.Precision != "f32" {
				t.Fatalf("registry row precision %q, want f32", row.Precision)
			}
		}
	}
	if !found {
		t.Fatal("distprec32 missing from /v1/sys/registry")
	}

	// Quality check against the single-process float32 fit: same separated
	// blobs, same k — costs within a few percent.
	local, err := kmeansll.Cluster(points, kmeansll.Config{
		K: k, Seed: 11, Precision: kmeansll.Float32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Cost-local.Cost) > 0.05*(1+local.Cost) {
		t.Fatalf("dist f32 cost %v far from local f32 cost %v", st.Cost, local.Cost)
	}

	var rep predictResponse
	if code := do(t, s, "POST", "/v1/models/distprec32/predict", pointsRequest{Points: points[:8]}, &rep); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	if len(rep.Assignments) != 8 {
		t.Fatalf("%d assignments for 8 points", len(rep.Assignments))
	}
}

// TestFitPrecisionWidenedFallback pins the precision reporting of a float32
// request with the Trimmed optimizer. It once widened to f64; every
// optimizer now runs in float32, so the job status and model metadata
// report requested=f32 effective=f32.
func TestFitPrecisionWidenedFallback(t *testing.T) {
	s := newTestServer(t, Config{})
	points := blobPoints(200, 3, 2, 6)

	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model: "widened", Points: points,
		Config: fitConfig{
			K: 2, Seed: 3, Precision: "f32",
			Optimizer: &kmeansll.OptimizerSpec{Type: "trimmed", Fraction: 0.05},
		},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobDone {
		t.Fatalf("widened fit ended %q (%s)", st.State, st.Error)
	}
	if st.PrecisionRequested != "f32" || st.PrecisionEffective != "f32" {
		t.Fatalf("trimmed job precision requested=%q effective=%q, want f32/f32",
			st.PrecisionRequested, st.PrecisionEffective)
	}

	var meta modelSummary
	if code := do(t, s, "GET", "/v1/models/widened", nil, &meta); code != http.StatusOK {
		t.Fatalf("GET model: status %d", code)
	}
	if meta.Precision != "f32" || meta.PrecisionRequested != "f32" || meta.PrecisionEffective != "f32" {
		t.Fatalf("trimmed model precision=%q requested=%q effective=%q, want f32/f32/f32",
			meta.Precision, meta.PrecisionRequested, meta.PrecisionEffective)
	}
}

// TestPersistedConfigPrecision checks a queued f32 fit survives the persist
// round trip — the spec file written at submit must restore Precision.
func TestPersistedConfigPrecision(t *testing.T) {
	p := persistedConfig{K: 3, Precision: int(kmeansll.Float32), Seed: 1}
	cfg, err := p.config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Precision != kmeansll.Float32 {
		t.Fatalf("restored precision %v, want Float32", cfg.Precision)
	}
}
