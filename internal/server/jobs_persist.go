package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"kmeansll"
	"kmeansll/internal/distkm"
)

// Fit jobs used to live only in memory: a restart silently dropped everything
// queued and running. With a jobs directory configured (Config.JobsDir,
// normally -model-dir/jobs), every accepted job's spec is persisted as one
// JSON file for as long as the job is pending, and RecoverJobs replays the
// directory at boot: queued jobs are requeued under their original IDs,
// interrupted running jobs are marked failed — except dist fits that left a
// coordinator checkpoint behind, which are requeued and resume mid-fit.

// maxPersistPoints bounds the inline training points written into a persisted
// spec (~a few MB of JSON). Larger inline jobs are persisted without their
// points — still visible after a restart, but only as a failed job, since the
// training set died with the process. Dataset-path jobs carry no points and
// always requeue.
const maxPersistPoints = 65536

// persistedJob is the on-disk form of one pending fit job. The Init and
// Precision enums are stored as their integer values: the file only needs to
// survive a restart of the same binary, not a schema migration.
type persistedJob struct {
	ID        string          `json:"id"`
	Model     string          `json:"model"`
	State     JobState        `json:"state"`
	QueuedAt  time.Time       `json:"queued_at"`
	Backend   string          `json:"backend,omitempty"`
	Shards    int             `json:"shards,omitempty"`
	Restarts  int             `json:"restarts,omitempty"`
	DataPath  string          `json:"data_path,omitempty"`
	DataName  string          `json:"data_name,omitempty"`
	NumPoints int             `json:"num_points,omitempty"`
	Points    [][]float64     `json:"points,omitempty"`
	Elided    bool            `json:"points_elided,omitempty"`
	Config    persistedConfig `json:"config"`
}

type persistedConfig struct {
	K            int     `json:"k"`
	Init         int     `json:"init,omitempty"`
	Oversampling float64 `json:"oversampling,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
	MaxIter      int     `json:"max_iter,omitempty"`
	Optimizer    string  `json:"optimizer,omitempty"`
	Precision    int     `json:"precision,omitempty"`
	Parallelism  int     `json:"parallelism,omitempty"`
	Seed         uint64  `json:"seed"`
}

func (p persistedConfig) config() (kmeansll.Config, error) {
	cfg := kmeansll.Config{
		K: p.K, Init: kmeansll.InitMethod(p.Init), Oversampling: p.Oversampling,
		Rounds: p.Rounds, MaxIter: p.MaxIter, Precision: kmeansll.Precision(p.Precision),
		Parallelism: p.Parallelism, Seed: p.Seed,
	}
	if p.Optimizer != "" {
		opt, err := kmeansll.ParseOptimizer(p.Optimizer)
		if err != nil {
			return cfg, err
		}
		cfg.Optimizer = opt
	}
	return cfg, nil
}

func (m *JobManager) jobFile(id string) string {
	return filepath.Join(m.jobsDir, id+".json")
}

// ckptDir is where a dist job's coordinator checkpoints live. Keyed by job ID
// so a restarted server can find (and resume from) the interrupted fit.
func (m *JobManager) ckptDir(id string) string {
	return filepath.Join(m.jobsDir, id+".ckpt")
}

// persistJob writes j's spec in the given lifecycle state. Best-effort: an
// unwritable jobs dir must not fail the submission — the job merely loses
// restart durability. All spec fields are immutable once submitted, so no
// job lock is needed; the state is passed explicitly.
func (m *JobManager) persistJob(j *Job, state JobState) {
	if m.jobsDir == "" {
		return
	}
	p := persistedJob{
		ID: j.ID, Model: j.ModelName, State: state, QueuedAt: j.queued,
		Backend: j.backend, Shards: j.shards, Restarts: j.restarts,
		DataPath: j.dataPath, DataName: j.dataName, NumPoints: j.nPoints,
		Config: persistedConfig{
			K: j.cfg.K, Init: int(j.cfg.Init), Oversampling: j.cfg.Oversampling,
			Rounds: j.cfg.Rounds, MaxIter: j.cfg.MaxIter, Precision: int(j.cfg.Precision),
			Parallelism: j.cfg.Parallelism, Seed: j.cfg.Seed,
		},
	}
	if j.cfg.Optimizer != nil {
		p.Config.Optimizer = j.cfg.Optimizer.String()
	}
	if len(j.points) > maxPersistPoints {
		p.Elided = true
	} else {
		p.Points = j.points
	}
	if err := m.writeJobFile(p); err != nil {
		m.logf("job %s: persisting spec: %v", j.ID, err)
	}
}

func (m *JobManager) writeJobFile(p persistedJob) error {
	if err := os.MkdirAll(m.jobsDir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	path := m.jobFile(p.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// unpersistJob removes a settled job's spec file.
func (m *JobManager) unpersistJob(id string) {
	if m.jobsDir == "" {
		return
	}
	if err := os.Remove(m.jobFile(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		m.logf("job %s: removing persisted spec: %v", id, err)
	}
}

// RecoverJobs replays the jobs directory after a restart: queued specs are
// requeued under their original IDs, interrupted running jobs are marked
// failed ("interrupted by server restart") — except dist fits whose
// coordinator left a checkpoint behind, which requeue and resume mid-fit.
// Call before serving traffic, after the registry is loaded.
func (s *Server) RecoverJobs() (requeued, failed int, err error) {
	return s.jobs.Recover()
}

// Recover is RecoverJobs on the manager itself; see there.
func (m *JobManager) Recover() (requeued, failed int, err error) {
	if m.jobsDir == "" {
		return 0, 0, nil
	}
	entries, err := os.ReadDir(m.jobsDir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	var specs []persistedJob
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(m.jobsDir, e.Name()))
		if err != nil {
			return requeued, failed, err
		}
		var p persistedJob
		if err := json.Unmarshal(buf, &p); err != nil {
			m.logf("jobs dir: skipping unreadable %s: %v", e.Name(), err)
			continue
		}
		specs = append(specs, p)
	}
	// Replay in submission order so requeued jobs run in their original order
	// and the ID counter ends past every recovered ID.
	sort.Slice(specs, func(i, j int) bool { return jobNum(specs[i].ID) < jobNum(specs[j].ID) })

	for _, p := range specs {
		cfg, cfgErr := p.Config.config()
		j := &Job{
			ID: p.ID, ModelName: p.Model, points: p.Points,
			dataPath: p.DataPath, dataName: p.DataName, nPoints: p.NumPoints,
			cfg: cfg, optimizer: cfg.OptimizerOrDefault().String(),
			restarts: p.Restarts, backend: p.Backend, shards: p.Shards,
			state: JobQueued, queued: p.QueuedAt,
		}
		m.mu.Lock()
		if n := jobNum(p.ID); n > m.nextID {
			m.nextID = n
		}
		m.retainLocked(j)
		m.mu.Unlock()

		runnable := cfgErr == nil && (p.DataPath != "" || len(p.Points) > 0)
		reason := ""
		switch {
		case cfgErr != nil:
			reason = fmt.Sprintf("interrupted by server restart (bad persisted config: %v)", cfgErr)
		case p.State == JobRunning && !(p.Backend == "dist" && runnable && distkm.HasCheckpoint(m.ckptDir(p.ID))):
			// A running local fit left nothing to continue from; a running
			// dist fit is requeued only when its checkpoint survived.
			reason = "interrupted by server restart"
		case !runnable:
			reason = "interrupted by server restart (training points were not persisted)"
		}
		if reason != "" {
			m.failRecovered(j, reason)
			failed++
			continue
		}
		if !m.requeue(j) {
			m.failRecovered(j, "fit queue full after restart")
			failed++
			continue
		}
		requeued++
	}
	return requeued, failed, nil
}

// requeue re-enqueues a recovered job, refreshing its persisted state (a
// resumed dist fit's file still said "running"). As in SubmitSpec, the
// spec is written before the send so a worker's later writes win; on a
// full queue the caller fails the job, which removes the file.
func (m *JobManager) requeue(j *Job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return false
	}
	m.persistJob(j, JobQueued)
	select {
	case m.queue <- j:
		return true
	default:
		return false
	}
}

// failRecovered settles a recovered-but-unrunnable job: visible via
// GET /v1/jobs/{id} with a clear error instead of silently vanishing.
func (m *JobManager) failRecovered(j *Job, reason string) {
	j.mu.Lock()
	j.state = JobFailed
	j.err = reason
	j.finished = time.Now().UTC()
	j.points = nil
	j.mu.Unlock()
	m.noteError(j.ID, reason)
	m.unpersistJob(j.ID)
	if j.backend == "dist" {
		_ = distkm.RemoveCheckpoint(m.ckptDir(j.ID))
	}
	m.logf("job %s: %s", j.ID, reason)
}

func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}
