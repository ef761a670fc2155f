package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kmeansll"
	"kmeansll/internal/distkm"
)

// JobState is the lifecycle of an async fit job.
type JobState string

const (
	// JobQueued is a job waiting in the bounded queue.
	JobQueued JobState = "queued"
	// JobRunning is a job a worker has picked up.
	JobRunning JobState = "running"
	// JobDone is a job whose fit completed and published.
	JobDone JobState = "done"
	// JobFailed is a job whose fit returned an error (or was interrupted
	// by a server restart without a resumable checkpoint).
	JobFailed JobState = "failed"
	// JobCanceled is a job canceled while still queued.
	JobCanceled JobState = "canceled"
)

// Job is one enqueued fit. Fields after the mutex are guarded by it; the
// inputs are immutable once submitted.
type Job struct {
	ID        string
	ModelName string
	points    [][]float64
	dataPath  string // non-empty: fit an on-disk dataset instead of points
	dataName  string // request-relative dataset path, for status display
	nPoints   int
	cfg       kmeansll.Config
	optimizer string // canonical spec of cfg's effective optimizer
	restarts  int
	backend   string // "local" (default) or "dist"
	shards    int    // dist backend: loopback worker count

	mu       sync.Mutex
	state    JobState
	err      string
	queued   time.Time
	started  time.Time
	finished time.Time
	result   *ModelVersion
}

// JobStatus is the JSON view of a job returned by GET /v1/jobs/{id}.
type JobStatus struct {
	ID         string   `json:"id"`
	Model      string   `json:"model"`
	State      JobState `json:"state"`
	Error      string   `json:"error,omitempty"`
	QueuedAt   string   `json:"queued_at"`
	StartedAt  string   `json:"started_at,omitempty"`
	FinishedAt string   `json:"finished_at,omitempty"`
	NumPoints  int      `json:"num_points"`
	K          int      `json:"k"`
	Optimizer  string   `json:"optimizer,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	Dataset    string   `json:"dataset,omitempty"`
	Version    int      `json:"version,omitempty"`
	Cost       float64  `json:"cost,omitempty"`
	Iters      int      `json:"iters,omitempty"`
	Converged  bool     `json:"converged,omitempty"`
	// PrecisionRequested is set when the fit config asked for a non-default
	// precision; PrecisionEffective then reports, once the job finishes, the
	// arithmetic that actually ran ("f64" = the config was outside the
	// float32 fast path and the fit transparently widened).
	PrecisionRequested string `json:"precision_requested,omitempty"`
	PrecisionEffective string `json:"precision_effective,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID: j.ID, Model: j.ModelName, State: j.state, Error: j.err,
		QueuedAt:  j.queued.Format(time.RFC3339Nano),
		NumPoints: j.nPoints, K: j.cfg.K, Optimizer: j.optimizer,
		Backend: j.backend, Dataset: j.dataName,
	}
	if !j.started.IsZero() {
		s.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		s.FinishedAt = j.finished.Format(time.RFC3339Nano)
	}
	if j.cfg.Precision != kmeansll.Float64 {
		s.PrecisionRequested = j.cfg.Precision.String()
	}
	if j.result != nil {
		s.Version = j.result.Version
		s.Cost = j.result.Model.Cost
		s.Iters = j.result.Model.Iters
		s.Converged = j.result.Model.Converged
		if s.PrecisionRequested != "" {
			s.PrecisionEffective = j.result.Model.PrecisionEffective().String()
		}
	}
	return s
}

// JobManager runs fit jobs on a bounded worker pool and publishes completed
// models into the registry. Submission is non-blocking: a full queue is an
// immediate error (the HTTP layer maps it to 503), which keeps memory
// bounded under overload instead of buffering unbounded training sets.
type JobManager struct {
	registry *Registry
	queue    chan *Job
	stop     chan struct{}
	wg       sync.WaitGroup

	// distAddrs, when non-empty, lists external kmworker addresses that
	// "dist"-backend fits shard across; empty means an in-process loopback
	// cluster per job. Set once at server construction, before any traffic.
	distAddrs []string
	// dataDir mirrors Config.DataDir: the root dataset paths were resolved
	// under. Manifest-pull dist fits use it as the loopback workers' data
	// dir and to express the manifest's location relative to it, so
	// loopback and external workers resolve identical paths. Set once at
	// server construction.
	dataDir string
	// jobsDir, when non-empty, persists pending job specs (and dist-fit
	// coordinator checkpoints) so RecoverJobs can replay them after a
	// restart. Set once at server construction.
	jobsDir string
	// logf receives one line per notable job event; never nil.
	logf func(format string, args ...any)

	workers int          // pool size, for the sys table
	busy    atomic.Int64 // workers currently executing a job

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // insertion order, for bounded retention
	nextID  int
	maxJobs int
	stopped bool

	// lastErr* record the most recent job failure for /v1/sys/jobs, so "what
	// broke last" is one GET away instead of a scan over retained jobs.
	lastErrJob string
	lastErrMsg string
	lastErrAt  time.Time

	// noWorkersUntil, when in the future, short-circuits dist submissions:
	// a dist fit just died with every external worker unreachable, so new
	// dist jobs are rejected with Retry-After until the cooldown passes
	// instead of being accepted and failing the same way. noWorkersErr is
	// the failure that opened the breaker.
	noWorkersUntil time.Time
	noWorkersErr   string

	// distLive tracks the coordinator of every currently-running dist fit,
	// keyed by job ID, so /v1/sys/dist can render per-worker shard state
	// while a distributed fit is in flight.
	distLive map[string]*distkm.Coordinator

	// runJob executes one dequeued job; m.run outside of tests. The stop-
	// priority regression test swaps it for a blocking stub so the
	// worker/Stop interleaving can be driven deterministically.
	runJob func(*Job)
}

// NewJobManager starts `workers` fit workers (≤ 0 means 2) consuming a queue
// of depth `depth` (≤ 0 means 16). Each job additionally parallelizes its
// own Lloyd iterations via kmeansll.Config.Parallelism, so a small worker
// count saturates the machine.
func NewJobManager(reg *Registry, workers, depth int) *JobManager {
	return newJobManager(reg, workers, depth, nil)
}

// newJobManager is NewJobManager with an injectable job executor, installed
// before the workers start so tests can drive the worker/Stop interleaving
// without data races.
func newJobManager(reg *Registry, workers, depth int, runJob func(*Job)) *JobManager {
	if workers <= 0 {
		workers = 2
	}
	if depth <= 0 {
		depth = 16
	}
	m := &JobManager{
		registry: reg,
		queue:    make(chan *Job, depth),
		stop:     make(chan struct{}),
		jobs:     make(map[string]*Job),
		maxJobs:  1024,
		workers:  workers,
		distLive: make(map[string]*distkm.Coordinator),
		logf:     func(string, ...any) {},
	}
	m.runJob = m.run
	if runJob != nil {
		m.runJob = runJob
	}
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// FitSpec fully describes one fit submission.
type FitSpec struct {
	Model    string
	Points   [][]float64
	Config   kmeansll.Config
	Restarts int
	// Backend selects where the fit runs: "" or "local" is the in-process
	// kmeansll.Cluster path, "dist" shards the points across distkm workers
	// (external when the server was configured with worker addresses,
	// an in-process loopback cluster otherwise).
	Backend string
	// Shards is the loopback worker count for "dist" (0 = DefaultDistShards);
	// ignored when external workers are configured.
	Shards int
	// DataPath, when non-empty, names an on-disk dataset (.kmd or shard
	// manifest, already resolved to an absolute path) the job opens at run
	// time instead of holding Points. NumPoints carries the probed row count
	// and DataName the request-relative path for status display.
	DataPath  string
	DataName  string
	NumPoints int
}

// Submit enqueues a fit of cfg over points, publishing the result as
// modelName. restarts ≤ 1 runs Cluster once; otherwise ClusterBest.
func (m *JobManager) Submit(modelName string, points [][]float64, cfg kmeansll.Config, restarts int) (*Job, error) {
	return m.SubmitSpec(FitSpec{Model: modelName, Points: points, Config: cfg, Restarts: restarts})
}

// SubmitSpec enqueues the described fit.
func (m *JobManager) SubmitSpec(spec FitSpec) (*Job, error) {
	if spec.Restarts < 1 {
		spec.Restarts = 1
	}
	backend := spec.Backend
	if backend == "" {
		backend = "local"
	}
	// Enforced here, not only in the HTTP handler, so a programmatic submit
	// cannot record an optimizer the dist path would never run (distributed
	// Lloyd is the plain MR assignment pass).
	if backend == "dist" {
		if opt := spec.Config.OptimizerOrDefault(); opt != (kmeansll.Lloyd{}) {
			return nil, fmt.Errorf(`backend "dist" supports only optimizer "lloyd:naive", not %q`, opt)
		}
		if err := m.distAvailable(); err != nil {
			return nil, err
		}
	}
	nPoints := spec.NumPoints
	if nPoints == 0 {
		nPoints = len(spec.Points)
	}
	j := &Job{
		ModelName: spec.Model, points: spec.Points, nPoints: nPoints,
		dataPath: spec.DataPath, dataName: spec.DataName,
		cfg: spec.Config, optimizer: spec.Config.OptimizerOrDefault().String(),
		restarts: spec.Restarts,
		backend:  backend, shards: spec.Shards,
		state: JobQueued, queued: time.Now().UTC(),
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, errors.New("job manager is shut down")
	}
	m.nextID++
	j.ID = fmt.Sprintf("job-%d", m.nextID)
	m.retainLocked(j)

	// The enqueue stays under m.mu so it cannot interleave with Stop: once
	// Stop has set stopped (also under m.mu) and drained the queue, no send
	// can slip a job into the dead channel. The spec is written before the
	// send: once a worker holds the job, its "running" write and its removal
	// on settling must not be overtaken by this "queued" one.
	m.persistJob(j, JobQueued)
	select {
	case m.queue <- j:
		return j, nil
	default:
		m.unpersistJob(j.ID)
		j.mu.Lock()
		j.state = JobFailed
		j.err = "fit queue full"
		j.finished = time.Now().UTC()
		j.mu.Unlock()
		m.noteErrorLocked(j.ID, "fit queue full")
		return nil, errors.New("fit queue full")
	}
}

// retainLocked records j, evicting the oldest finished job when over the
// retention bound. Callers hold m.mu.
func (m *JobManager) retainLocked(j *Job) {
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	if len(m.order) <= m.maxJobs {
		return
	}
	for i, id := range m.order {
		old := m.jobs[id]
		old.mu.Lock()
		finished := old.state == JobDone || old.state == JobFailed || old.state == JobCanceled
		old.mu.Unlock()
		if finished {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// Get returns a job by ID.
func (m *JobManager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns retained jobs, oldest first.
func (m *JobManager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Counts tallies retained jobs by state for the stats endpoint.
func (m *JobManager) Counts() map[JobState]int {
	out := make(map[JobState]int)
	for _, j := range m.List() {
		j.mu.Lock()
		out[j.state]++
		j.mu.Unlock()
	}
	return out
}

// JobsSysStatus is the /v1/sys/jobs virtual table: the fit subsystem's
// occupancy — how deep the queue is versus its bound, how many workers are
// busy, what states the retained jobs are in, and the last failure.
type JobsSysStatus struct {
	QueueDepth    int              `json:"queue_depth"`
	QueueCapacity int              `json:"queue_capacity"`
	Workers       int              `json:"workers"`
	WorkersBusy   int              `json:"workers_busy"`
	Retained      int              `json:"retained_jobs"`
	States        map[JobState]int `json:"states"`
	LastErrorJob  string           `json:"last_error_job,omitempty"`
	LastError     string           `json:"last_error,omitempty"`
	LastErrorAt   string           `json:"last_error_at,omitempty"`
}

// SysStatus snapshots the job subsystem for /v1/sys/jobs.
func (m *JobManager) SysStatus() JobsSysStatus {
	s := JobsSysStatus{
		QueueDepth:    len(m.queue),
		QueueCapacity: cap(m.queue),
		Workers:       m.workers,
		WorkersBusy:   int(m.busy.Load()),
		States:        m.Counts(),
	}
	m.mu.Lock()
	s.Retained = len(m.jobs)
	s.LastErrorJob, s.LastError = m.lastErrJob, m.lastErrMsg
	if !m.lastErrAt.IsZero() {
		s.LastErrorAt = m.lastErrAt.Format(time.RFC3339Nano)
	}
	m.mu.Unlock()
	return s
}

// trackDist registers the coordinator of a running dist fit so /v1/sys/dist
// can snapshot its per-worker shard state; untrackDist removes it when the
// fit settles.
func (m *JobManager) trackDist(jobID string, c *distkm.Coordinator) {
	m.mu.Lock()
	m.distLive[jobID] = c
	m.mu.Unlock()
}

func (m *JobManager) untrackDist(jobID string) {
	m.mu.Lock()
	delete(m.distLive, jobID)
	m.mu.Unlock()
}

// DistFitSnapshot is one active distributed fit in /v1/sys/dist.
type DistFitSnapshot struct {
	Job string `json:"job"`
	distkm.Snapshot
}

// DistSnapshots renders per-worker shard state for every dist fit currently
// in flight, sorted by job ID. Coordinator snapshots are taken outside m.mu
// (they briefly lock the coordinator itself).
func (m *JobManager) DistSnapshots() []DistFitSnapshot {
	m.mu.Lock()
	ids := make([]string, 0, len(m.distLive))
	coords := make([]*distkm.Coordinator, 0, len(m.distLive))
	for id := range m.distLive {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		coords = append(coords, m.distLive[id])
	}
	m.mu.Unlock()
	out := make([]DistFitSnapshot, len(ids))
	for i := range ids {
		out[i] = DistFitSnapshot{Job: ids[i], Snapshot: coords[i].Snapshot()}
	}
	return out
}

func (m *JobManager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case j := <-m.queue:
			// A closed stop channel and a non-empty queue are both ready, and
			// select picks between them at random — so without this nested
			// check a stopping pool could keep executing queued fits. Give
			// stop priority: if it is already closed, cancel the job we just
			// dequeued (Stop's drain loop can no longer see it) and exit.
			select {
			case <-m.stop:
				m.cancel(j)
				return
			default:
			}
			m.busy.Add(1)
			m.runJob(j)
			m.busy.Add(-1)
		}
	}
}

// noteErrorLocked records a job failure for the sys table. Callers hold m.mu.
func (m *JobManager) noteErrorLocked(jobID, msg string) {
	m.lastErrJob, m.lastErrMsg, m.lastErrAt = jobID, msg, time.Now().UTC()
}

func (m *JobManager) noteError(jobID, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteErrorLocked(jobID, msg)
}

// cancel marks a queued job canceled-at-shutdown and releases its points.
func (m *JobManager) cancel(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return
	}
	j.state = JobCanceled
	j.err = "server shutting down"
	j.finished = time.Now().UTC()
	j.points = nil
}

// run executes one job and publishes its model.
func (m *JobManager) run(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now().UTC()
	j.mu.Unlock()
	m.persistJob(j, JobRunning)

	var (
		model *kmeansll.Model
		err   error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("fit panicked: %v", r)
			}
		}()
		switch {
		case j.backend == "dist":
			model, err = m.distFit(j)
		case j.dataPath != "":
			model, err = m.pathFit(j)
		case j.restarts > 1:
			model, err = kmeansll.ClusterBest(j.points, j.cfg, j.restarts)
		default:
			model, err = kmeansll.Cluster(j.points, j.cfg)
		}
	}()

	var mv *ModelVersion
	if err == nil {
		mv, err = m.registry.PublishMeta(j.ModelName, model, "fit-job:"+j.ID, j.optimizer)
	}
	if err != nil {
		m.noteError(j.ID, err.Error())
	}

	// The spec file only covers pending work; once the job settles the
	// registry (or the recorded error) is the durable record.
	defer m.unpersistJob(j.ID)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now().UTC()
	j.points = nil // release the training set as soon as the job settles
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
		return
	}
	j.state = JobDone
	j.result = mv
}

// Stop shuts the pool down: no new submissions, queued-but-unstarted jobs
// are marked canceled, and the call blocks until in-flight fits finish.
func (m *JobManager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()

	close(m.stop)
	m.wg.Wait()
	for {
		select {
		case j := <-m.queue:
			m.cancel(j)
		default:
			return
		}
	}
}
