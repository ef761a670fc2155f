package server

import (
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kmeansll"
	"kmeansll/internal/data"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
)

// The composability acceptance test: one optimizer spec must select the same
// fit — bit for bit — from the library (ClusterDataset), from a kmserved fit
// job carrying the JSON form, and from the kmcluster binary carrying the
// flag form. All three run over the same .kmd dataset with the same seed, so
// any divergence means an entry point grew a private fit pipeline again.
func TestOptimizerSpecEquivalenceAcrossEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI equivalence test in -short mode (shells out to `go build`)")
	}
	const k, d, n = 6, 5, 1500
	const seedVal = 11
	points := blobPoints(n, d, k, 3)
	dataDir := t.TempDir()
	kmdPath := filepath.Join(dataDir, "train.kmd")
	if err := dsio.Save(kmdPath, geom.NewDataset(geom.FromRows(points))); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(t.TempDir(), "kmcluster")
	build := exec.Command("go", "build", "-o", bin, "kmeansll/cmd/kmcluster")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kmcluster: %v\n%s", err, out)
	}

	s := newTestServer(t, Config{FitWorkers: 2, DataDir: dataDir})

	cases := []struct {
		name string
		flag string // kmcluster/kmstream -optimizer form
		spec *kmeansll.OptimizerSpec
		lib  kmeansll.Optimizer
	}{
		{
			name: "minibatch",
			flag: "minibatch:b=64,iters=40",
			spec: &kmeansll.OptimizerSpec{Type: "minibatch", BatchSize: 64, Iters: 40},
			lib:  kmeansll.MiniBatch{BatchSize: 64, Iters: 40},
		},
		{
			name: "trimmed",
			flag: "trimmed:0.05",
			spec: &kmeansll.OptimizerSpec{Type: "trimmed", Fraction: 0.05},
			lib:  kmeansll.Trimmed{Fraction: 0.05},
		},
		{
			name: "spherical",
			flag: "spherical",
			spec: &kmeansll.OptimizerSpec{Type: "spherical"},
			lib:  kmeansll.Spherical{},
		},
		{
			name: "lloyd-elkan",
			flag: "lloyd:elkan",
			spec: &kmeansll.OptimizerSpec{Type: "lloyd", Kernel: "elkan"},
			lib:  kmeansll.Lloyd{Kernel: kmeansll.ElkanKernel},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The three forms must already agree on the canonical string.
			if parsed, err := kmeansll.ParseOptimizer(tc.flag); err != nil || parsed != tc.lib {
				t.Fatalf("ParseOptimizer(%q) = %v, %v; want %v", tc.flag, parsed, err, tc.lib)
			}
			if fromSpec, err := tc.spec.Optimizer(); err != nil || fromSpec != tc.lib {
				t.Fatalf("spec.Optimizer() = %v, %v; want %v", fromSpec, err, tc.lib)
			}

			// Library, over the same mmap'd dataset the other two open.
			ds, closer, err := dsio.Load(kmdPath)
			if err != nil {
				t.Fatal(err)
			}
			model, err := kmeansll.ClusterDataset(ds, kmeansll.Config{
				K: k, Seed: seedVal, Optimizer: tc.lib,
			})
			closer.Close()
			if err != nil {
				t.Fatal(err)
			}

			// Server fit job: dataset path + JSON optimizer spec.
			modelName := "equiv-" + tc.name
			var job JobStatus
			code := do(t, s, "POST", "/v1/fit", fitRequest{
				Model:   modelName,
				Dataset: &DatasetSpec{Path: "train.kmd"},
				Config:  fitConfig{K: k, Seed: seedVal, Optimizer: tc.spec},
			}, &job)
			if code != http.StatusAccepted {
				t.Fatalf("POST /v1/fit: status %d", code)
			}
			if job.Optimizer != tc.lib.String() {
				t.Fatalf("job status optimizer %q, want %q", job.Optimizer, tc.lib.String())
			}
			if st := waitForJob(t, s, job.ID); st.State != JobDone {
				t.Fatalf("fit ended %q (err %q)", st.State, st.Error)
			}
			var sum modelSummary
			if code := do(t, s, "GET", "/v1/models/"+modelName+"?centers=true", nil, &sum); code != http.StatusOK {
				t.Fatalf("GET model: status %d", code)
			}
			if sum.Optimizer != tc.lib.String() {
				t.Fatalf("model metadata optimizer %q, want %q", sum.Optimizer, tc.lib.String())
			}
			requireSameCenters(t, "server vs library", sum.Centers, model.Centers)

			// kmcluster binary: same dataset, flag form of the same spec.
			outCSV := filepath.Join(t.TempDir(), "centers.csv")
			cmd := exec.Command(bin,
				"-in", kmdPath, "-k", "6", "-seed", "11",
				"-optimizer", tc.flag, "-o", outCSV, "-q")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("kmcluster: %v\n%s", err, out)
			}
			cli := loadCSVCenters(t, outCSV)
			requireSameCenters(t, "kmcluster vs library", cli, model.Centers)
		})
	}
}

// loadCSVCenters reads a kmcluster centers file back into rows. WriteCSV
// formats float64s with 'g'/-1 precision, so the round trip is exact and
// bitwise comparison is legitimate.
func loadCSVCenters(t *testing.T, path string) [][]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := data.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, ds.N())
	for i := range out {
		row := make([]float64, ds.Dim())
		copy(row, ds.Point(i))
		out[i] = row
	}
	return out
}

// Submit-time validation: a malformed optimizer spec must be rejected with
// 400 before a job is enqueued, and the dist backend accepts only the plain
// lloyd:naive optimizer.
func TestFitOptimizerValidation(t *testing.T) {
	s := newTestServer(t, Config{FitWorkers: 1})
	points := blobPoints(60, 3, 2, 4)
	post := func(cfg fitConfig, backend string) (int, string) {
		var errResp errorResponse
		code := do(t, s, "POST", "/v1/fit", fitRequest{
			Model: "reject", Points: points, Config: cfg, Backend: backend,
		}, &errResp)
		return code, errResp.Error
	}
	if code, msg := post(fitConfig{K: 2, Optimizer: &kmeansll.OptimizerSpec{Type: "warp"}}, ""); code != http.StatusBadRequest {
		t.Fatalf("unknown optimizer type: status %d (%s)", code, msg)
	}
	if code, msg := post(fitConfig{K: 2, Optimizer: &kmeansll.OptimizerSpec{Type: "trimmed", Fraction: 1.5}}, ""); code != http.StatusBadRequest {
		t.Fatalf("out-of-range fraction: status %d (%s)", code, msg)
	}
	if code, msg := post(fitConfig{K: 2, Optimizer: &kmeansll.OptimizerSpec{Type: "trimmed", Fraction: 0.1, BatchSize: 9}}, ""); code != http.StatusBadRequest {
		t.Fatalf("foreign knob on trimmed: status %d (%s)", code, msg)
	}
	// The kernel is picked inside the optimizer spec only: config.kernel is
	// an unknown field.
	var errResp errorResponse
	if code := do(t, s, "POST", "/v1/fit", `{"model": "reject", "points": [[1],[2]], "config": {"k": 1, "kernel": "elkan"}}`, &errResp); code != http.StatusBadRequest ||
		!strings.Contains(errResp.Error, `unknown field "kernel"`) {
		t.Fatalf("config.kernel: status %d (%s)", code, errResp.Error)
	}
	if code, msg := post(fitConfig{K: 2, Optimizer: &kmeansll.OptimizerSpec{Type: "minibatch"}}, "dist"); code != http.StatusBadRequest ||
		!strings.Contains(msg, "lloyd:naive") {
		t.Fatalf("dist+minibatch: status %d (%s)", code, msg)
	}
	// The same restriction holds at the JobManager level, so a programmatic
	// dist submit cannot record an optimizer the dist path never runs.
	if _, _, err := s.jobs.SubmitSpec(FitSpec{
		Model: "direct", Points: points, Backend: "dist",
		Config: kmeansll.Config{K: 2, Optimizer: kmeansll.MiniBatch{}},
	}); err == nil || !strings.Contains(err.Error(), "lloyd:naive") {
		t.Fatalf("SubmitSpec dist+minibatch: err=%v", err)
	}
	if _, _, err := s.jobs.SubmitSpec(FitSpec{
		Model: "direct", Points: points, Backend: "dist",
		Config: kmeansll.Config{K: 2, Optimizer: kmeansll.Lloyd{Kernel: kmeansll.ElkanKernel}},
	}); err == nil || !strings.Contains(err.Error(), "lloyd:naive") {
		t.Fatalf("SubmitSpec dist+lloyd:elkan: err=%v", err)
	}
	// A valid spec sails through and lands in the published metadata.
	var job JobStatus
	code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model: "ok", Points: points,
		Config: fitConfig{K: 2, Seed: 1, Optimizer: &kmeansll.OptimizerSpec{Type: "minibatch", Iters: 10}},
	}, &job)
	if code != http.StatusAccepted {
		t.Fatalf("valid minibatch fit: status %d", code)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("fit ended %q (err %q)", st.State, st.Error)
	}
	var sum modelSummary
	if code := do(t, s, "GET", "/v1/models/ok", nil, &sum); code != http.StatusOK {
		t.Fatalf("GET model: status %d", code)
	}
	if sum.Optimizer != "minibatch:iters=10" {
		t.Fatalf("published optimizer %q", sum.Optimizer)
	}
	if sum.Converged {
		t.Fatal("mini-batch fit published Converged=true")
	}
}
