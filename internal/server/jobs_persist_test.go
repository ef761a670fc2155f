package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kmeansll"
)

// TestJobsPersistRecoverQueuedAndRunning simulates a server crash: one job is
// mid-run and one is queued when the process dies. The restarted server must
// requeue the queued job under its original ID and fail the interrupted
// running one with a clear error — neither may silently vanish.
func TestJobsPersistRecoverQueuedAndRunning(t *testing.T) {
	dir := t.TempDir()
	points := blobPoints(60, 3, 3, 5)

	// Manager #1 plays the crashing server: its single worker "runs" jobs by
	// persisting the running state and then hanging, so job-1 is caught
	// mid-run and job-2 still queued when we abandon the manager (no Stop —
	// a crash does not drain).
	block := make(chan struct{})
	var m1 *JobManager
	stub := func(j *Job) {
		j.mu.Lock()
		j.state = JobRunning
		j.mu.Unlock()
		m1.persistJob(j, JobRunning)
		<-block
	}
	m1 = newJobManager(NewRegistry(0), 1, 4, stub)
	m1.jobsDir = dir
	t.Cleanup(func() {
		close(block)
		m1.Stop()
	})
	for i := 0; i < 2; i++ {
		if _, _, err := m1.SubmitSpec(FitSpec{Model: "crashy", Points: points, Config: kmeansll.Config{K: 3, Seed: 5}}); err != nil {
			t.Fatal(err)
		}
	}
	waitForFile(t, filepath.Join(dir, "job-1.json"), `"running"`)
	waitForFile(t, filepath.Join(dir, "job-2.json"), `"queued"`)

	// The restarted server replays the jobs directory.
	s := newTestServer(t, Config{FitWorkers: 1, JobsDir: dir})
	requeued, failed, err := s.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 || failed != 1 {
		t.Fatalf("recovered (requeued=%d, failed=%d), want (1, 1)", requeued, failed)
	}

	var st JobStatus
	if code := do(t, s, "GET", "/v1/jobs/job-1", nil, &st); code != http.StatusOK {
		t.Fatalf("GET recovered job-1: status %d", code)
	}
	if st.State != JobFailed || !strings.Contains(st.Error, "interrupted by server restart") {
		t.Fatalf("interrupted running job: state=%q err=%q", st.State, st.Error)
	}
	if st = waitForJob(t, s, "job-2"); st.State != JobDone {
		t.Fatalf("requeued job ended %q (err %q)", st.State, st.Error)
	}
	if _, ok := s.registry.Get("crashy"); !ok {
		t.Fatal("requeued job published no model")
	}

	// Settled jobs leave no spec files behind, and fresh submissions number
	// past the recovered IDs instead of colliding with them.
	waitForGone(t, filepath.Join(dir, "job-1.json"))
	waitForGone(t, filepath.Join(dir, "job-2.json"))
	var job JobStatus
	if code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model: "fresh", Points: points, Config: fitConfig{K: 3, Seed: 2},
	}, &job); code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit after recovery: status %d", code)
	}
	if job.ID != "job-3" {
		t.Fatalf("post-recovery job ID %q, want job-3", job.ID)
	}
}

// A queued job file that still carries the integer "kernel" of the removed
// config field recovers as plain Lloyd, whose model bits equal the bound
// kernels'.
func TestRecoverJobFileWithKernelInteger(t *testing.T) {
	dir := t.TempDir()
	spec := `{"id": "job-1", "model": "old", "state": "queued", "points": [[0, 0], [0, 1], [9, 9], [9, 8]],
		"config": {"k": 2, "kernel": 1, "seed": 5}}`
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{FitWorkers: 1, JobsDir: dir})
	if requeued, failed, err := s.RecoverJobs(); err != nil || requeued != 1 || failed != 0 {
		t.Fatalf("recovered (requeued=%d, failed=%d, err=%v), want (1, 0)", requeued, failed, err)
	}
	if st := waitForJob(t, s, "job-1"); st.State != JobDone || st.Optimizer != "lloyd:naive" {
		t.Fatalf("recovered job ended %q with optimizer %q (err %q)", st.State, st.Optimizer, st.Error)
	}
}

// A running dist job that left a coordinator checkpoint is requeued rather
// than failed; an unreadable checkpoint must degrade to a fresh fit, not
// wedge the job.
func TestRecoverDistJobWithCheckpointRequeues(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{FitWorkers: 1, JobsDir: dir})
	p := persistedJob{
		ID: "job-4", Model: "resumed", State: JobRunning,
		QueuedAt: time.Now().UTC(), Backend: "dist", Shards: 2, Restarts: 1,
		NumPoints: 60, Points: blobPoints(60, 3, 3, 7),
		Config: persistedConfig{K: 3, Seed: 9},
	}
	if err := s.jobs.writeJobFile(p); err != nil {
		t.Fatal(err)
	}
	ckpt := s.jobs.ckptDir(p.ID)
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	// Deliberately corrupt: resume must fail and fall back to a fresh fit.
	if err := os.WriteFile(filepath.Join(ckpt, "checkpoint.json"), []byte("{bogus"), 0o644); err != nil {
		t.Fatal(err)
	}

	requeued, failed, err := s.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 || failed != 0 {
		t.Fatalf("recovered (requeued=%d, failed=%d), want (1, 0)", requeued, failed)
	}
	if st := waitForJob(t, s, "job-4"); st.State != JobDone {
		t.Fatalf("recovered dist job ended %q (err %q)", st.State, st.Error)
	}
	if _, ok := s.registry.Get("resumed"); !ok {
		t.Fatal("recovered dist job published no model")
	}
	// The settled fit cleans its checkpoint directory up with the spec file.
	waitForGone(t, filepath.Join(ckpt, "checkpoint.json"))
}

// With every configured external worker unreachable, a dist fit fails with
// the typed no-workers error, and the breaker turns the *next* dist
// submission into an immediate 503 with a Retry-After — local fits stay
// unaffected.
func TestDistNoWorkersBreaker(t *testing.T) {
	// 127.0.0.1:1 refuses connections immediately, so the job fails fast.
	s := newTestServer(t, Config{FitWorkers: 1, DistWorkers: []string{"127.0.0.1:1"}})
	points := blobPoints(40, 3, 2, 11)
	fit := fitRequest{Model: "nw", Points: points, Config: fitConfig{K: 2, Seed: 3}, Backend: "dist"}

	var job JobStatus
	if code := do(t, s, "POST", "/v1/fit", fit, &job); code != http.StatusAccepted {
		t.Fatalf("POST /v1/fit: status %d", code)
	}
	st := waitForJob(t, s, job.ID)
	if st.State != JobFailed || !strings.Contains(st.Error, "no live workers") {
		t.Fatalf("dead-pool dist job: state=%q err=%q", st.State, st.Error)
	}

	body, err := json.Marshal(fit)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/fit", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dist submission with open breaker: status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("breaker 503 carries no Retry-After header")
	}
	if !strings.Contains(rec.Body.String(), "unavailable") {
		t.Fatalf("breaker 503 body: %s", rec.Body.String())
	}

	// The breaker gates only the dist backend.
	if code := do(t, s, "POST", "/v1/fit", fitRequest{
		Model: "local-ok", Points: points, Config: fitConfig{K: 2, Seed: 3},
	}, &job); code != http.StatusAccepted {
		t.Fatalf("local fit during open breaker: status %d", code)
	}
	if st := waitForJob(t, s, job.ID); st.State != JobDone {
		t.Fatalf("local fit ended %q (err %q)", st.State, st.Error)
	}
}

// waitForFile polls until path exists and contains want.
func waitForFile(t *testing.T, path, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if buf, err := os.ReadFile(path); err == nil && strings.Contains(string(buf), want) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s never contained %q", path, want)
}

// waitForGone polls until path no longer exists.
func waitForGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s still exists", path)
}
