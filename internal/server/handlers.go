package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"kmeansll"
	"kmeansll/internal/data"
	"kmeansll/internal/dsio"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// Parallelism bounds the worker goroutines of one predict/transform
	// batch and of each fit job (0 = all CPUs).
	Parallelism int
	// FitWorkers is the number of concurrent fit jobs (0 = 2).
	FitWorkers int
	// FitQueueDepth bounds queued-but-unstarted fit jobs (0 = 16).
	FitQueueDepth int
	// MaxRequestBytes caps any request body (0 = 32 MiB).
	MaxRequestBytes int64
	// MaxBatchPoints caps points per predict/transform/ingest/fit request
	// (0 = 1_000_000).
	MaxBatchPoints int
	// MaxHistory bounds per-model retained versions (0 = DefaultMaxHistory).
	MaxHistory int
	// MaxInflight bounds concurrently-executing predict/transform requests;
	// requests beyond it are shed immediately with 503 + Retry-After instead
	// of queuing unboundedly (0 = DefaultMaxInflight, < 0 disables admission
	// control).
	MaxInflight int
	// DistWorkers lists external kmworker addresses for "dist"-backend fit
	// jobs. Empty means each dist fit runs an in-process loopback cluster.
	DistWorkers []string
	// DataDir, when non-empty, enables path-based fit jobs: a request may
	// name a .kmd dataset or shard manifest relative to this directory
	// instead of carrying points inline, and the job mmaps it at run time.
	// Empty (the default) rejects dataset paths — the server will not open
	// arbitrary files on request.
	DataDir string
	// JobsDir, when non-empty, persists pending fit-job specs (and dist-fit
	// coordinator checkpoints) so RecoverJobs can requeue queued jobs — and
	// resume checkpointed dist fits — after a restart instead of silently
	// losing them. cmd/kmserved sets it to <model-dir>/jobs.
	JobsDir string
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

// Server is the kmserved HTTP application: registry + prediction + fit jobs
// + streaming ingest + stats, assembled onto one ServeMux. It implements
// http.Handler, so tests drive it through httptest and cmd/kmserved wraps
// it in an http.Server.
type Server struct {
	cfg      Config
	registry *Registry
	jobs     *JobManager
	streams  *StreamManager
	stats    *statsTable
	gate     *inflightGate // admission control on predict/transform; nil = unlimited
	mux      *http.ServeMux

	httpMu   sync.Mutex // guards http and shutdown (ListenAndServe vs Shutdown)
	http     *http.Server
	shutdown bool
}

// New assembles a Server. Call Close (or Shutdown) when done to stop the
// fit workers.
func New(cfg Config) *Server {
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 32 << 20
	}
	if cfg.MaxBatchPoints <= 0 {
		cfg.MaxBatchPoints = 1_000_000
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := NewRegistry(cfg.MaxHistory)
	s := &Server{
		cfg:      cfg,
		registry: reg,
		jobs:     NewJobManager(reg, cfg.FitWorkers, cfg.FitQueueDepth),
		streams:  NewStreamManager(reg),
		stats:    newStatsTable(),
		gate:     newInflightGate(cfg.MaxInflight),
		mux:      http.NewServeMux(),
	}
	s.jobs.distAddrs = cfg.DistWorkers
	s.jobs.dataDir = cfg.DataDir
	s.jobs.jobsDir = cfg.JobsDir
	s.jobs.logf = cfg.Logf
	s.routes()
	return s
}

// Registry exposes the model registry (cmd/kmserved persists it).
func (s *Server) Registry() *Registry { return s.registry }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background fit workers. Safe to call more than once.
func (s *Server) Close() { s.jobs.Stop() }

// routes registers every endpoint, each wrapped in the stats middleware
// under its route pattern so /v1/stats shows one row per endpoint.
func (s *Server) routes() {
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.stats.instrument(pattern, s.limitBody(h)))
	}
	// gatedHandle additionally runs the handler through the admission gate:
	// the shed check fires before the body is read, so rejecting an overload
	// costs microseconds, and the shed is still counted on the pattern's
	// stats row by the instrument wrapper outside it.
	gatedHandle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.stats.instrument(pattern, s.gated(pattern, s.limitBody(h))))
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /v1/stats", s.handleStats)

	// The V$-style virtual tables (read-only, one GET per subsystem).
	handle("GET /v1/sys", s.handleSysIndex)
	handle("GET /v1/sys/endpoints", s.handleSysEndpoints)
	handle("GET /v1/sys/registry", s.handleSysRegistry)
	handle("GET /v1/sys/jobs", s.handleSysJobs)
	handle("GET /v1/sys/streams", s.handleSysStreams)
	handle("GET /v1/sys/datasets", s.handleSysDatasets)
	handle("GET /v1/sys/runtime", s.handleSysRuntime)
	handle("GET /v1/sys/dist", s.handleSysDist)
	handle("GET /v1/sys/admission", s.handleSysAdmission)

	handle("GET /v1/models", s.handleListModels)
	handle("GET /v1/models/{name}", s.handleGetModel)
	handle("PUT /v1/models/{name}", s.handlePutModel)
	handle("DELETE /v1/models/{name}", s.handleDeleteModel)
	handle("GET /v1/models/{name}/versions", s.handleVersions)
	handle("POST /v1/models/{name}/rollback", s.handleRollback)
	gatedHandle("POST /v1/models/{name}/predict", s.handlePredict)
	gatedHandle("POST /v1/models/{name}/transform", s.handleTransform)

	handle("POST /v1/fit", s.handleFit)
	handle("GET /v1/jobs", s.handleListJobs)
	handle("GET /v1/jobs/{id}", s.handleGetJob)

	handle("POST /v1/streams/{name}", s.handleCreateStream)
	handle("GET /v1/streams", s.handleListStreams)
	handle("GET /v1/streams/{name}", s.handleGetStream)
	handle("DELETE /v1/streams/{name}", s.handleDeleteStream)
	handle("POST /v1/streams/{name}/ingest", s.handleIngest)
	handle("POST /v1/streams/{name}/refit", s.handleRefitStream)
}

// limitBody enforces the request-size cap before any handler reads.
func (s *Server) limitBody(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		}
		h(w, r)
	}
}

// ---- shared plumbing ----------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON strictly decodes the request body into v: unknown fields, and
// anything but whitespace after the value, are errors. It returns an HTTP
// status and error for the handler to report.
func decodeJSON(r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err)
	}
	// Decoder.More reports false before a stray ']' or '}', so the rest of
	// the body is read to EOF instead.
	rest := io.MultiReader(dec.Buffered(), r.Body)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		for _, c := range buf[:n] {
			if !isSpace(c) {
				return http.StatusBadRequest, errTrailingData
			}
		}
		if err == io.EOF {
			return 0, nil
		}
		if err != nil {
			return bodyError(err)
		}
	}
}

var errTrailingData = errors.New("invalid JSON body: trailing data")

// bodyError translates a failure to read or decode a request body into a
// client-facing status and message: 413 when the body exceeds the request
// cap, 400 otherwise.
func bodyError(err error) (int, error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", maxErr.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", err)
}

// checkBatch validates a point batch: non-empty, within the size cap, and
// (when wantDim > 0) rectangular with the given dimensionality. Points
// bodies get the same checks from decodePoints as they are scanned.
func (s *Server) checkBatch(points [][]float64, wantDim int) error {
	if len(points) == 0 {
		return errors.New("no points in request")
	}
	if len(points) > s.cfg.MaxBatchPoints {
		return fmt.Errorf("%d points exceeds the per-request cap of %d", len(points), s.cfg.MaxBatchPoints)
	}
	dim := wantDim
	if dim <= 0 {
		dim = len(points[0])
	}
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("point %d has %d dims, want %d", i, len(p), dim)
		}
	}
	return nil
}

// currentModel resolves {name} (with optional ?version=N) to a model
// version, writing the HTTP error itself when resolution fails.
func (s *Server) currentModel(w http.ResponseWriter, r *http.Request) (*ModelVersion, bool) {
	name := r.PathValue("name")
	if v := r.URL.Query().Get("version"); v != "" {
		version, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid version %q", v)
			return nil, false
		}
		mv, ok := s.registry.GetVersion(name, version)
		if !ok {
			writeError(w, http.StatusNotFound, "model %q has no retained version %d", name, version)
			return nil, false
		}
		return mv, true
	}
	mv, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return nil, false
	}
	return mv, true
}

// modelSummary is the JSON metadata view of a model version.
type modelSummary struct {
	Name      string  `json:"name"`
	Version   int     `json:"version"`
	K         int     `json:"k"`
	Dim       int     `json:"dim"`
	Cost      float64 `json:"cost"`
	Iters     int     `json:"iters"`
	Converged bool    `json:"converged"`
	Optimizer string  `json:"optimizer,omitempty"`
	// Precision is the arithmetic this version's batch predictions run at.
	// PrecisionRequested/PrecisionEffective appear when the fit asked for
	// "f32": effective "f64" means the configuration was outside the float32
	// fast path and the fit transparently widened.
	Precision          string      `json:"precision"`
	PrecisionRequested string      `json:"precision_requested,omitempty"`
	PrecisionEffective string      `json:"precision_effective,omitempty"`
	Source             string      `json:"source"`
	CreatedAt          string      `json:"created_at"`
	Centers            [][]float64 `json:"centers,omitempty"`
}

func summarize(mv *ModelVersion, withCenters bool) modelSummary {
	out := modelSummary{
		Name: mv.Name, Version: mv.Version,
		K: mv.Model.K(), Dim: mv.Model.Dim(),
		Cost: mv.Model.Cost, Iters: mv.Model.Iters, Converged: mv.Model.Converged,
		Optimizer: mv.Optimizer,
		Precision: mv.Model.PredictPrecision().String(),
		Source:    mv.Source, CreatedAt: mv.CreatedAt.Format(time.RFC3339Nano),
	}
	if mv.Model.PrecisionRequested() != kmeansll.Float64 {
		out.PrecisionRequested = mv.Model.PrecisionRequested().String()
		out.PrecisionEffective = mv.Model.PrecisionEffective().String()
	}
	if withCenters {
		out.Centers = mv.Model.Centers
	}
	return out
}

// ---- health and stats ---------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type statsResponse struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Goroutines    int              `json:"goroutines"`
	Endpoints     []EndpointStats  `json:"endpoints"`
	Models        int              `json:"models"`
	Versions      int              `json:"versions"`
	Jobs          map[JobState]int `json:"jobs"`
	Streams       []StreamStatus   `json:"streams"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	models, versions := s.registry.Counts()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.stats.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Endpoints:     s.stats.snapshot(),
		Models:        models,
		Versions:      versions,
		Jobs:          s.jobs.Counts(),
		Streams:       s.streams.List(),
	})
}

// ---- model registry endpoints -------------------------------------------

func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request) {
	list := s.registry.List()
	out := make([]modelSummary, len(list))
	for i, mv := range list {
		out[i] = summarize(mv, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	mv, ok := s.currentModel(w, r)
	if !ok {
		return
	}
	withCenters := r.URL.Query().Get("centers") == "true"
	writeJSON(w, http.StatusOK, summarize(mv, withCenters))
}

type putModelRequest struct {
	Centers [][]float64 `json:"centers"`
}

func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !ValidModelName(name) {
		writeError(w, http.StatusBadRequest, "invalid model name %q", name)
		return
	}
	var req putModelRequest
	if status, err := decodeJSON(r, &req); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	model, err := kmeansll.NewModel(req.Centers)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mv, err := s.registry.Publish(name, model, "upload")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cfg.Logf("model %q v%d uploaded (k=%d dim=%d)", name, mv.Version, model.K(), model.Dim())
	writeJSON(w, http.StatusCreated, summarize(mv, false))
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Delete(name) {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	s.cfg.Logf("model %q deleted", name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	versions := s.registry.Versions(name)
	if len(versions) == 0 {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	out := make([]modelSummary, len(versions))
	for i, mv := range versions {
		out[i] = summarize(mv, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "versions": out})
}

type rollbackRequest struct {
	Version int `json:"version"`
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req rollbackRequest
	if status, err := decodeJSON(r, &req); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	mv, err := s.registry.Rollback(name, req.Version)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.cfg.Logf("model %q rolled back to v%d (now v%d)", name, req.Version, mv.Version)
	writeJSON(w, http.StatusOK, summarize(mv, false))
}

// ---- prediction service -------------------------------------------------

type predictResponse struct {
	Model       string `json:"model"`
	Version     int    `json:"version"`
	Assignments []int  `json:"assignments"`
}

// handlePredict assigns each point of the body to its nearest center. With
// the pooled decode buffers and Model.PredictBatchInto's pooled kernel
// scratch, the steady-state path allocates only for the response.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	mv, ok := s.currentModel(w, r)
	if !ok {
		return
	}
	body, status, err := s.decodePoints(r, mv.Model.Dim())
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	defer body.release()
	if cap(body.assign) < len(body.rows) {
		body.assign = make([]int, len(body.rows))
	}
	out := body.assign[:len(body.rows)]
	mv.Model.PredictBatchInto(body.rows, out, s.cfg.Parallelism)
	writeJSON(w, http.StatusOK, predictResponse{
		Model: mv.Name, Version: mv.Version,
		Assignments: out,
	})
}

type transformResponse struct {
	Model     string      `json:"model"`
	Version   int         `json:"version"`
	Distances [][]float64 `json:"distances"`
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	mv, ok := s.currentModel(w, r)
	if !ok {
		return
	}
	body, status, err := s.decodePoints(r, mv.Model.Dim())
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	defer body.release()
	out := mv.Model.TransformBatch(body.rows, s.cfg.Parallelism)
	writeJSON(w, http.StatusOK, transformResponse{Model: mv.Name, Version: mv.Version, Distances: out})
}

// ---- fit jobs -----------------------------------------------------------

// GenerateSpec asks the server to synthesize a Gaussian-mixture training set
// (internal/data, §4.1 of the paper) instead of shipping points inline.
type GenerateSpec struct {
	N    int     `json:"n"`
	D    int     `json:"d"`
	K    int     `json:"k"`
	R    float64 `json:"r,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
}

type fitConfig struct {
	K    int    `json:"k"`
	Init string `json:"init,omitempty"` // kmeansll | kmeans++ | random | partition
	// Kernel is the legacy shorthand for {"optimizer":{"type":"lloyd",
	// "kernel":...}}; it conflicts with an explicit optimizer spec.
	Kernel string `json:"kernel,omitempty"` // naive | elkan | hamerly
	// Optimizer selects the refinement variant — the same spec the library
	// and CLIs accept. Validated at submit, recorded in job status and
	// model metadata. Absent means lloyd:naive.
	Optimizer    *kmeansll.OptimizerSpec `json:"optimizer,omitempty"`
	Oversampling float64                 `json:"oversampling,omitempty"`
	Rounds       int                     `json:"rounds,omitempty"`
	MaxIter      int                     `json:"max_iter,omitempty"`
	Seed         uint64                  `json:"seed,omitempty"`
	// Precision selects the fit's distance arithmetic: "f64" (default) or
	// "f32" for the single-precision engine; see docs/kernels.md for the
	// tolerance contract.
	Precision string `json:"precision,omitempty"`
}

// DatasetSpec names an on-disk dataset for a fit job: a .kmd file or a
// shard manifest, relative to the server's -data-dir. This is the
// out-of-core fit path — the request stays ~100 bytes however large the
// dataset is, and the job opens (mmaps) the data when it runs.
type DatasetSpec struct {
	Path string `json:"path"`
}

type fitRequest struct {
	Model    string        `json:"model"`
	Points   [][]float64   `json:"points,omitempty"`
	Generate *GenerateSpec `json:"generate,omitempty"`
	Dataset  *DatasetSpec  `json:"dataset,omitempty"`
	Config   fitConfig     `json:"config"`
	Restarts int           `json:"restarts,omitempty"`
	// Backend: "local" (default) fits in-process; "dist" shards the training
	// set across distkm k-means|| workers (external kmworker processes when
	// the server was started with -dist-workers, an in-process loopback
	// cluster otherwise).
	Backend string `json:"backend,omitempty"`
	// Shards is the dist-backend loopback worker count (0 = server default).
	Shards int `json:"shards,omitempty"`
}

func (c fitConfig) toLibrary(parallelism int) (kmeansll.Config, error) {
	out := kmeansll.Config{
		K: c.K, Oversampling: c.Oversampling, Rounds: c.Rounds,
		MaxIter: c.MaxIter, Seed: c.Seed, Parallelism: parallelism,
	}
	switch strings.ToLower(c.Init) {
	case "", "kmeansll", "kmeans||":
		out.Init = kmeansll.KMeansParallel
	case "kmeans++":
		out.Init = kmeansll.KMeansPlusPlus
	case "random":
		out.Init = kmeansll.RandomInit
	case "partition":
		out.Init = kmeansll.PartitionInit
	default:
		return out, fmt.Errorf("unknown init %q (want kmeansll, kmeans++, random or partition)", c.Init)
	}
	switch strings.ToLower(c.Kernel) {
	case "", "naive":
		out.Kernel = kmeansll.NaiveKernel
	case "elkan":
		out.Kernel = kmeansll.ElkanKernel
	case "hamerly":
		out.Kernel = kmeansll.HamerlyKernel
	default:
		return out, fmt.Errorf("unknown kernel %q (want naive, elkan or hamerly)", c.Kernel)
	}
	if c.Optimizer != nil {
		if c.Kernel != "" {
			return out, errors.New(`config.kernel conflicts with config.optimizer; put the kernel inside the optimizer spec`)
		}
		opt, err := c.Optimizer.Optimizer()
		if err != nil {
			return out, err
		}
		out.Optimizer = opt
	}
	prec, err := kmeansll.ParsePrecision(c.Precision)
	if err != nil {
		return out, err
	}
	out.Precision = prec
	return out, nil
}

// maxRestarts caps fit restarts: a job is uncancellable once running, so an
// unbounded restart count could wedge a worker (and shutdown) indefinitely.
const maxRestarts = 64

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req fitRequest
	if status, err := decodeJSON(r, &req); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	if !ValidModelName(req.Model) {
		writeError(w, http.StatusBadRequest, "invalid model name %q", req.Model)
		return
	}
	if req.Config.K < 1 {
		writeError(w, http.StatusBadRequest, "config.k must be ≥ 1")
		return
	}
	if req.Restarts < 0 || req.Restarts > maxRestarts {
		writeError(w, http.StatusBadRequest, "restarts must be between 0 and %d", maxRestarts)
		return
	}
	switch req.Backend {
	case "", "local", "dist":
	default:
		writeError(w, http.StatusBadRequest, `unknown backend %q (want "local" or "dist")`, req.Backend)
		return
	}
	if req.Shards < 0 || req.Shards > maxDistShards {
		writeError(w, http.StatusBadRequest, "shards must be between 0 and %d", maxDistShards)
		return
	}
	cfg, err := req.Config.toLibrary(s.cfg.Parallelism)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Backend == "dist" {
		if cfg.Init != kmeansll.KMeansParallel {
			writeError(w, http.StatusBadRequest, `backend "dist" supports only init "kmeansll"`)
			return
		}
		// Distributed Lloyd is the plain MR assignment pass; silently
		// downgrading a requested variant or accelerated kernel would
		// misreport what ran.
		if opt := cfg.OptimizerOrDefault(); opt != (kmeansll.Lloyd{Kernel: kmeansll.NaiveKernel}) {
			writeError(w, http.StatusBadRequest, `backend "dist" supports only optimizer "lloyd:naive"`)
			return
		}
	}

	sources := 0
	for _, present := range []bool{len(req.Points) > 0, req.Generate != nil, req.Dataset != nil} {
		if present {
			sources++
		}
	}
	if sources > 1 {
		writeError(w, http.StatusBadRequest, "give exactly one of points, generate or dataset")
		return
	}

	spec := FitSpec{
		Model: req.Model, Config: cfg,
		Restarts: req.Restarts, Backend: req.Backend, Shards: req.Shards,
	}
	switch {
	case req.Dataset != nil:
		full, info, err := s.resolveDataset(req.Dataset.Path)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.Config.K > info.Rows {
			writeError(w, http.StatusBadRequest, "config.k (%d) exceeds the dataset's %d points", req.Config.K, info.Rows)
			return
		}
		spec.DataPath, spec.DataName, spec.NumPoints = full, req.Dataset.Path, info.Rows
	default:
		points := req.Points
		if req.Generate != nil {
			points, err = s.generate(*req.Generate)
			if err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		if err := s.checkBatch(points, 0); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if req.Config.K > len(points) {
			writeError(w, http.StatusBadRequest, "config.k (%d) exceeds the number of training points (%d)", req.Config.K, len(points))
			return
		}
		spec.Points, spec.NumPoints = points, len(points)
	}

	job, err := s.jobs.SubmitSpec(spec)
	if err != nil {
		// The dist breaker knows when the worker pool is worth re-probing;
		// plain queue-full keeps the header-less 503.
		var down *DistUnavailableError
		if errors.As(err, &down) {
			if secs := int(math.Ceil(time.Until(down.Until).Seconds())); secs > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.cfg.Logf("fit %s enqueued: model=%q n=%d k=%d init=%s optimizer=%s backend=%s dataset=%q",
		job.ID, req.Model, spec.NumPoints, cfg.K, cfg.Init, job.optimizer, job.backend, spec.DataName)
	writeJSON(w, http.StatusAccepted, job.Status())
}

// resolveDataset validates a fit request's dataset path against the
// configured data dir and probes its header — an O(1) check that the file
// exists, parses, and is internally consistent, without touching the
// payload. It returns the absolute path the job will open.
func (s *Server) resolveDataset(p string) (string, dsio.Info, error) {
	if s.cfg.DataDir == "" {
		return "", dsio.Info{}, errors.New("this server has no data directory (-data-dir); dataset paths are disabled")
	}
	if p == "" || !filepath.IsLocal(p) {
		return "", dsio.Info{}, fmt.Errorf("dataset path %q must be relative to the data directory", p)
	}
	full := filepath.Join(s.cfg.DataDir, p)
	switch strings.ToLower(filepath.Ext(p)) {
	case dsio.Ext:
		info, err := dsio.Stat(full)
		return full, info, err
	case ".json":
		m, err := dsio.LoadManifest(full)
		if err != nil {
			return "", dsio.Info{}, err
		}
		return full, dsio.Info{Rows: m.Rows, Cols: m.Cols, Weighted: m.Weighted}, nil
	default:
		return "", dsio.Info{}, fmt.Errorf("dataset path %q must end in %s or .json (a shard manifest)", p, dsio.Ext)
	}
}

// maxGenerateValues caps n·d of a server-side generated dataset (~512 MB of
// float64s). Inline points are bounded by MaxRequestBytes; without this the
// generate path would let a 200-byte request demand an arbitrary allocation.
const maxGenerateValues = 1 << 26

// generate synthesizes a Gaussian-mixture training set server-side.
func (s *Server) generate(g GenerateSpec) ([][]float64, error) {
	if g.N < 1 || g.D < 1 || g.K < 1 {
		return nil, errors.New("generate requires positive n, d and k")
	}
	if g.N > s.cfg.MaxBatchPoints {
		return nil, fmt.Errorf("generate.n %d exceeds the per-request cap of %d", g.N, s.cfg.MaxBatchPoints)
	}
	if int64(g.N)*int64(g.D) > maxGenerateValues {
		return nil, fmt.Errorf("generate.n×d %d exceeds the cap of %d values", int64(g.N)*int64(g.D), int64(maxGenerateValues))
	}
	if g.K > g.N {
		return nil, fmt.Errorf("generate.k %d cannot exceed generate.n %d", g.K, g.N)
	}
	if g.R == 0 {
		g.R = 10
	}
	ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: g.N, D: g.D, K: g.K, R: g.R, Seed: g.Seed})
	out := make([][]float64, ds.N())
	for i := range out {
		row := make([]float64, ds.Dim())
		copy(row, ds.Point(i))
		out[i] = row
	}
	return out, nil
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// ---- streaming ingest ---------------------------------------------------

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec StreamSpec
	if status, err := decodeJSON(r, &spec); err != nil {
		writeError(w, status, "%v", err)
		return
	}
	e, err := s.streams.Create(name, spec)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	s.cfg.Logf("stream %q created: k=%d dim=%d refit_every=%d", name, e.spec.K, e.spec.Dim, e.spec.RefitEvery)
	writeJSON(w, http.StatusCreated, e.status())
}

func (s *Server) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"streams": s.streams.List()})
}

func (s *Server) handleGetStream(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streams.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, e.status())
}

func (s *Server) handleDeleteStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.streams.Delete(name) {
		writeError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	s.cfg.Logf("stream %q deleted", name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

type ingestResponse struct {
	Stream      string `json:"stream"`
	Ingested    int    `json:"ingested"`
	TotalPoints int    `json:"total_points"`
	Refits      int    `json:"refits"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streams.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	body, status, err := s.decodePoints(r, e.spec.Dim)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	defer body.release()
	total, refits, err := s.streams.Ingest(e, body.rows)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrStreamDeleted) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Stream: e.name, Ingested: len(body.rows), TotalPoints: total, Refits: refits,
	})
}

func (s *Server) handleRefitStream(w http.ResponseWriter, r *http.Request) {
	e, ok := s.streams.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	mv, err := s.streams.Refit(e)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, summarize(mv, false))
}

// ---- serving ------------------------------------------------------------

// ListenAndServe runs the server on addr until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http — including
// when Shutdown won the race and ran first.
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpMu.Lock()
	if s.shutdown {
		s.httpMu.Unlock()
		return http.ErrServerClosed
	}
	s.http = srv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Shutdown gracefully drains in-flight HTTP requests, then stops the fit
// workers (waiting for running jobs to finish).
func (s *Server) Shutdown(ctx context.Context) error {
	s.httpMu.Lock()
	s.shutdown = true
	srv := s.http
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.jobs.Stop()
	return err
}
