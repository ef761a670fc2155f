package distkm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
)

// Coordinator checkpointing, after MV-PBT's multi-version durability idiom:
// every checkpoint writes an immutable per-round .kmd snapshot of the center
// set first, then atomically swings checkpoint.json to reference it. Recovery
// reads an old version instead of recomputing it; a crash between the two
// writes leaves the previous checkpoint fully intact.
//
// A resumed fit is bit-identical to an uninterrupted one because everything
// the arithmetic depends on is either in the checkpoint (driver RNG state,
// candidate set, φ traces) or deterministic given it: per-point sampling is
// counter-based in (seed, round, i), D² caches and their nearest rows
// rebuild exactly by replaying the recorded Update groups in order, and
// reductions run in fixed shard order. The shard count is
// part of the checkpoint so a resume with a different worker count re-shards
// to the original spans — worker count never was part of the math; span
// boundaries are.

const (
	// PhaseInit marks a checkpoint taken between k-means|| sampling rounds.
	PhaseInit = "init"
	// PhaseLloyd marks a checkpoint taken between Lloyd iterations.
	PhaseLloyd = "lloyd"

	checkpointVersion = 2
	checkpointFile    = "checkpoint.json"

	// DefaultCheckpointEvery is how many Lloyd iterations pass between
	// checkpoints when Checkpointer.EveryLloyd is 0. Init rounds are always
	// checkpointed — there are O(log n) of them and each is expensive.
	DefaultCheckpointEvery = 5
)

// Checkpoint is the on-disk coordinator state. Together with the referenced
// .kmd center snapshots it is everything needed to continue a fit from the
// last completed round / iteration.
type Checkpoint struct {
	Version int    `json:"version"`
	Phase   string `json:"phase"` // PhaseInit or PhaseLloyd

	// Fit configuration, for validation against the resuming run.
	K       int     `json:"k"`
	Ell     float64 `json:"ell"`
	Rounds  int     `json:"rounds"`
	MaxIter int     `json:"max_iter,omitempty"` // 0 while in init phase (not yet known)
	Seed    uint64  `json:"seed"`

	// Dataset shape. Shards is authoritative: a resume re-shards to this
	// count regardless of how many workers are connected, because span
	// boundaries (not worker count) enter the floating-point reductions.
	N      int `json:"n"`
	Dim    int `json:"dim"`
	Shards int `json:"shards"`

	// Progress. Round is the number of completed sampling rounds; Iter the
	// number of completed Lloyd iterations.
	Round int `json:"round"`
	Iter  int `json:"iter"`

	// Init-phase running state.
	Phi      float64   `json:"phi"`
	Psi      float64   `json:"psi"`
	PhiTrace []float64 `json:"phi_trace,omitempty"`
	// RoundStarts[j] is the first candidate row of the j-th Update group
	// folded into the D² caches (ψ's group starts at 0). A resume replays
	// the groups in order; the distance kernel a group runs depends on its
	// size, so refolding all candidates at once would not rebuild the
	// caches bit for bit.
	RoundStarts []int   `json:"round_starts,omitempty"`
	Candidates  int     `json:"candidates,omitempty"`
	SeedCost    float64 `json:"seed_cost,omitempty"`

	// Lloyd-phase running state. Converged marks a checkpoint saved on the
	// iteration that moved no center, so a resume runs no more iterations
	// (files written without the field read false).
	CostTrace []float64 `json:"cost_trace,omitempty"`
	Converged bool      `json:"converged,omitempty"`

	// Driver RNG mid-stream (Step 1 consumed, Step 8 not yet). JSON
	// round-trips the words exactly.
	Rng rng.State `json:"rng"`

	// Owners is the shard→worker map at save time — diagnostic only; a
	// resume reassigns onto whatever workers are connected.
	Owners []int `json:"owners,omitempty"`

	// CentersFile is the .kmd snapshot this checkpoint refers to: the
	// candidate set (init) or current centers (lloyd). SeedFile, set in the
	// Lloyd phase, is the k-center seeding result the final Stats report.
	CentersFile string `json:"centers_file"`
	SeedFile    string `json:"seed_file,omitempty"`

	SavedAt string `json:"saved_at"`
}

// Checkpointer configures where and how often a coordinator persists its
// state. Install with SetCheckpointer before fitting.
type Checkpointer struct {
	// Dir receives checkpoint.json and the .kmd center snapshots.
	Dir string
	// EveryLloyd checkpoints after every EveryLloyd-th Lloyd iteration
	// (0 = DefaultCheckpointEvery). Init rounds always checkpoint.
	EveryLloyd int
}

func (ck *Checkpointer) every() int {
	if ck.EveryLloyd > 0 {
		return ck.EveryLloyd
	}
	return DefaultCheckpointEvery
}

// SetCheckpointer enables checkpointing for subsequent fits. Call before
// Init/Fit/ResumeFit; nil disables.
func (c *Coordinator) SetCheckpointer(ck *Checkpointer) { c.ckpt = ck }

// save persists cp atomically: center snapshots first (immutable, new names
// per round), then checkpoint.json via write-tmp-then-rename, then prunes .kmd
// snapshots no checkpoint references anymore.
func (ck *Checkpointer) save(cp *Checkpoint, centers, seedC *geom.Matrix) error {
	if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
		return err
	}
	if cp.Phase == PhaseInit {
		cp.CentersFile = fmt.Sprintf("centers-init-r%03d.kmd", cp.Round)
	} else {
		cp.CentersFile = fmt.Sprintf("centers-lloyd-i%05d.kmd", cp.Iter)
	}
	if err := dsio.Save(filepath.Join(ck.Dir, cp.CentersFile), geom.NewDataset(centers)); err != nil {
		return err
	}
	if seedC != nil {
		cp.SeedFile = "centers-seed.kmd"
		seedPath := filepath.Join(ck.Dir, cp.SeedFile)
		if _, err := os.Stat(seedPath); errors.Is(err, os.ErrNotExist) {
			if err := dsio.Save(seedPath, geom.NewDataset(seedC)); err != nil {
				return err
			}
		}
	}
	cp.Version = checkpointVersion
	//kmlint:ignore determinism SavedAt is operator-facing metadata; resume replays from the RNG counter state, not the timestamp
	cp.SavedAt = time.Now().UTC().Format(time.RFC3339)

	raw, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(ck.Dir, checkpointFile+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(ck.Dir, checkpointFile)); err != nil {
		return err
	}
	ck.prune(cp)
	return nil
}

// prune removes center snapshots from superseded checkpoints (best effort).
func (ck *Checkpointer) prune(cp *Checkpoint) {
	entries, err := os.ReadDir(ck.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".kmd") || name == cp.CentersFile || name == cp.SeedFile {
			continue
		}
		_ = os.Remove(filepath.Join(ck.Dir, name))
	}
}

// HasCheckpoint reports whether dir holds a resumable checkpoint.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, checkpointFile))
	return err == nil
}

// LoadCheckpoint reads the checkpoint in dir along with its center
// snapshot(s): centers is the candidate set (init phase) or the current
// Lloyd centers; seedC is the k-means|| seeding result (Lloyd phase only).
func LoadCheckpoint(dir string) (cp *Checkpoint, centers, seedC *geom.Matrix, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		return nil, nil, nil, err
	}
	cp = &Checkpoint{}
	if err := json.Unmarshal(raw, cp); err != nil {
		return nil, nil, nil, fmt.Errorf("distkm: corrupt checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, nil, nil, fmt.Errorf("distkm: checkpoint version %d (want %d)", cp.Version, checkpointVersion)
	}
	if cp.Phase != PhaseInit && cp.Phase != PhaseLloyd {
		return nil, nil, nil, fmt.Errorf("distkm: unknown checkpoint phase %q", cp.Phase)
	}
	centers, err = loadCkptMatrix(filepath.Join(dir, cp.CentersFile))
	if err != nil {
		return nil, nil, nil, err
	}
	if cp.SeedFile != "" {
		seedC, err = loadCkptMatrix(filepath.Join(dir, cp.SeedFile))
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return cp, centers, seedC, nil
}

func loadCkptMatrix(path string) (*geom.Matrix, error) {
	ds, closer, err := dsio.Load(path)
	if err != nil {
		return nil, fmt.Errorf("distkm: checkpoint snapshot: %w", err)
	}
	m := ds.X.Clone()
	_ = closer.Close()
	return m, nil
}

// RemoveCheckpoint deletes the checkpoint state in dir (checkpoint.json and
// the .kmd snapshots), removing dir itself if that empties it. Call after a
// fit completes so a later run does not resume stale state.
func RemoveCheckpoint(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == checkpointFile || strings.HasSuffix(name, ".kmd") || name == checkpointFile+".tmp" {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	_ = os.Remove(dir) // only succeeds when empty, which is the point
	return nil
}

// validate checks that the checkpoint was taken by a fit with the same
// configuration and dataset shape as the resuming one.
func (cp *Checkpoint) validate(cfg core.Config, maxIter, n, dim int) error {
	ell, _ := cfg.Schedule()
	switch {
	case cp.K != cfg.K:
		return fmt.Errorf("distkm: checkpoint k=%d, config k=%d", cp.K, cfg.K)
	case cp.Seed != cfg.Seed:
		return fmt.Errorf("distkm: checkpoint seed=%d, config seed=%d", cp.Seed, cfg.Seed)
	case cp.Ell != ell:
		return fmt.Errorf("distkm: checkpoint ell=%g, config ell=%g", cp.Ell, ell)
	case cp.N != n || cp.Dim != dim:
		return fmt.Errorf("distkm: checkpoint dataset %dx%d, distributed dataset %dx%d", cp.N, cp.Dim, n, dim)
	}
	if maxIter = lloyd.MaxIter(maxIter); cp.MaxIter != 0 && cp.MaxIter != maxIter {
		return fmt.Errorf("distkm: checkpoint max_iter=%d, config max_iter=%d", cp.MaxIter, maxIter)
	}
	return nil
}

// CheckpointInfo summarizes the last successful checkpoint for Snapshot.
type CheckpointInfo struct {
	Phase   string `json:"phase"`
	Round   int    `json:"round"`
	Iter    int    `json:"iter"`
	SavedAt string `json:"saved_at"`
}

// owners snapshots the shard→worker map.
func (c *Coordinator) owners() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.assign...)
}

// checkpoint starts a Checkpoint of the given phase with the fit's
// configuration, dataset shape and owners filled in.
func (c *Coordinator) checkpoint(phase string, cfg core.Config) *Checkpoint {
	ell, rounds := cfg.Schedule()
	return &Checkpoint{
		Phase: phase,
		K:     cfg.K, Ell: ell, Rounds: rounds, Seed: cfg.Seed,
		N: c.n, Dim: c.dim, Shards: len(c.spans),
		Owners: c.owners(),
	}
}

// saveInit checkpoints the driver's state after Step 2 (round 0) or after a
// completed sampling round.
func (c *Coordinator) saveInit(cfg core.Config, st *core.Round) error {
	cp := c.checkpoint(PhaseInit, cfg)
	cp.Round, cp.Phi, cp.Psi = st.Round, st.Phi, st.Psi
	cp.PhiTrace = append([]float64(nil), st.PhiTrace...)
	cp.RoundStarts = append([]int(nil), st.Starts...)
	cp.Rng = st.Rng.State()
	return c.save(cp, st.Cands, nil)
}

// saveLloyd checkpoints the Lloyd phase: res.Centers after res.Iters
// completed iterations, and whether the last of them converged.
func (c *Coordinator) saveLloyd(cfg core.Config, maxIter int, seedC *geom.Matrix, res lloyd.Result, initStats Stats) error {
	cp := c.checkpoint(PhaseLloyd, cfg)
	cp.MaxIter, cp.Round, cp.Iter = maxIter, cp.Rounds, res.Iters
	cp.Psi, cp.PhiTrace = initStats.Psi, append([]float64(nil), initStats.PhiTrace...)
	cp.Candidates, cp.SeedCost = initStats.Candidates, initStats.SeedCost
	cp.CostTrace, cp.Converged = append([]float64(nil), res.CostTrace...), res.Converged
	return c.save(cp, res.Centers, seedC)
}

// save writes cp through the checkpointer and records it for Snapshot.
func (c *Coordinator) save(cp *Checkpoint, centers, seedC *geom.Matrix) error {
	if err := c.ckpt.save(cp, centers, seedC); err != nil {
		return fmt.Errorf("distkm: checkpoint: %w", err)
	}
	c.mu.Lock()
	c.lastCkpt = &CheckpointInfo{Phase: cp.Phase, Round: cp.Round, Iter: cp.Iter, SavedAt: cp.SavedAt}
	c.mu.Unlock()
	return nil
}
