// Package server implements kmserved, the HTTP serving tier over the
// kmeansll library: a versioned model registry with lock-free reads, a
// parallel batch prediction service, an async fit-job manager, and online
// streaming ingest that continuously refreshes served centers. Everything is
// stdlib-only (net/http); cmd/kmserved is the thin binary around it.
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kmeansll"
)

// DefaultMaxHistory bounds the per-model version history kept in memory.
const DefaultMaxHistory = 8

// modelNameRE validates registry names (they appear in URLs and filenames).
var modelNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ModelVersion is one immutable published version of a named model. The
// *kmeansll.Model inside is never mutated after publication, which is what
// makes the lock-free read path sound.
type ModelVersion struct {
	Name      string
	Version   int
	Model     *kmeansll.Model
	Source    string // e.g. "fit-job:job-3", "stream:clicks", "upload", "file"
	Optimizer string // canonical optimizer spec of the fit (e.g. "minibatch:iters=100"); "" for uploads
	CreatedAt time.Time
}

// regEntry holds the live pointer and bounded history for one model name.
type regEntry struct {
	current atomic.Pointer[ModelVersion]

	mu      sync.Mutex // guards history and nextVersion, not current's readers
	history []*ModelVersion
	nextVer int
}

// Registry is a named, versioned model store. Reads (the predict hot path)
// take one RLock on the name map plus one atomic pointer load; publishing a
// new version is an atomic pointer swap, so in-flight predictions keep the
// version they started with. Each name retains up to maxHistory recent
// versions for inspection and rollback, evicting oldest-first.
type Registry struct {
	mu         sync.RWMutex
	entries    map[string]*regEntry
	maxHistory int
}

// NewRegistry creates an empty registry. maxHistory ≤ 0 selects
// DefaultMaxHistory.
func NewRegistry(maxHistory int) *Registry {
	if maxHistory <= 0 {
		maxHistory = DefaultMaxHistory
	}
	return &Registry{entries: make(map[string]*regEntry), maxHistory: maxHistory}
}

// ValidModelName reports whether name is acceptable as a registry key.
func ValidModelName(name string) bool { return modelNameRE.MatchString(name) }

// entry returns the entry for name, creating it when create is set.
func (r *Registry) entry(name string, create bool) *regEntry {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e != nil || !create {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.entries[name]; e == nil {
		e = &regEntry{}
		r.entries[name] = e
	}
	return e
}

// Publish stores model as the next version of name and makes it current.
func (r *Registry) Publish(name string, model *kmeansll.Model, source string) (*ModelVersion, error) {
	return r.PublishMeta(name, model, source, "")
}

// PublishMeta is Publish carrying fit provenance: optimizer is the canonical
// spec string of the refinement that produced the model, surfaced in
// /v1/models metadata ("" when unknown, e.g. uploads).
func (r *Registry) PublishMeta(name string, model *kmeansll.Model, source, optimizer string) (*ModelVersion, error) {
	if !ValidModelName(name) {
		return nil, fmt.Errorf("invalid model name %q", name)
	}
	if model == nil || model.K() == 0 {
		return nil, fmt.Errorf("refusing to publish an empty model as %q", name)
	}
	for {
		e := r.entry(name, true)
		e.mu.Lock()
		// A concurrent Delete may have removed e from the map after we
		// resolved it; publishing into the orphan would silently lose the
		// model. Re-check membership under e.mu and retry on a fresh entry.
		r.mu.RLock()
		live := r.entries[name] == e
		r.mu.RUnlock()
		if !live {
			e.mu.Unlock()
			continue
		}
		e.nextVer++
		mv := &ModelVersion{
			Name: name, Version: e.nextVer, Model: model,
			Source: source, Optimizer: optimizer, CreatedAt: time.Now().UTC(),
		}
		e.history = append(e.history, mv)
		if len(e.history) > r.maxHistory {
			e.history = append(e.history[:0:0], e.history[len(e.history)-r.maxHistory:]...)
		}
		e.current.Store(mv)
		e.mu.Unlock()
		return mv, nil
	}
}

// Get returns the current version of name. This is the predict hot path.
func (r *Registry) Get(name string) (*ModelVersion, bool) {
	e := r.entry(name, false)
	if e == nil {
		return nil, false
	}
	mv := e.current.Load()
	return mv, mv != nil
}

// GetVersion returns a specific retained version of name.
func (r *Registry) GetVersion(name string, version int) (*ModelVersion, bool) {
	e := r.entry(name, false)
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, mv := range e.history {
		if mv.Version == version {
			return mv, true
		}
	}
	return nil, false
}

// Versions returns the retained history of name, oldest first.
func (r *Registry) Versions(name string) []*ModelVersion {
	e := r.entry(name, false)
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*ModelVersion(nil), e.history...)
}

// Rollback republishes a retained old version of name as the new current
// version (with a fresh version number, so history stays linear).
func (r *Registry) Rollback(name string, version int) (*ModelVersion, error) {
	old, ok := r.GetVersion(name, version)
	if !ok {
		return nil, fmt.Errorf("model %q has no retained version %d", name, version)
	}
	return r.PublishMeta(name, old.Model, fmt.Sprintf("rollback:v%d", version), old.Optimizer)
}

// Delete removes name and its whole history. It reports whether the name
// existed.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	return ok
}

// List returns the current version of every named model, sorted by name.
func (r *Registry) List() []*ModelVersion {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	out := make([]*ModelVersion, 0, len(names))
	for _, name := range names {
		if mv, ok := r.Get(name); ok {
			out = append(out, mv)
		}
	}
	return out
}

// modelFileExt is the on-disk extension for persisted models (the
// model_io.go text format).
const modelFileExt = ".kmm"

// SaveDir writes the current version of every model to dir as
// <name>.kmm in the model_io.go format. Existing files are overwritten;
// history is not persisted (it is an in-memory convenience).
func (r *Registry) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, mv := range r.List() {
		if err := mv.Model.SaveFile(filepath.Join(dir, mv.Name+modelFileExt)); err != nil {
			return fmt.Errorf("saving model %q: %w", mv.Name, err)
		}
	}
	return nil
}

// LoadDir publishes every <name>.kmm model file found in dir. Missing dir is
// not an error (first boot). It returns the number of models loaded.
func (r *Registry) LoadDir(dir string) (int, error) {
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), modelFileExt) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), modelFileExt)
		if !ValidModelName(name) {
			continue
		}
		m, err := kmeansll.LoadModelFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return n, fmt.Errorf("loading model %q: %w", name, err)
		}
		if _, err := r.Publish(name, m, "file"); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// RegistrySysRow is one row of the /v1/sys/registry virtual table: the
// occupancy of one model name — how much of the LRU history is in use and
// how many bytes of centers it pins.
type RegistrySysRow struct {
	Model          string `json:"model"`
	CurrentVersion int    `json:"current_version"`
	K              int    `json:"k"`
	Dim            int    `json:"dim"`
	Versions       int    `json:"versions_retained"`
	MaxHistory     int    `json:"max_history"`
	CenterBytes    int64  `json:"center_bytes"`
	Source         string `json:"source"`
	Optimizer      string `json:"optimizer,omitempty"`
	// Precision is the arithmetic the current version's batch predictions run
	// at ("f32" for models fitted on the single-precision engine).
	Precision string `json:"precision,omitempty"`
	CreatedAt string `json:"created_at"`
}

// sysRows renders the registry occupancy table, sorted by model name.
// CenterBytes sums k·dim float64s over every retained version (rollbacks
// share the underlying Model, so this is an upper bound on unique bytes).
func (r *Registry) sysRows() []RegistrySysRow {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	out := make([]RegistrySysRow, 0, len(names))
	for _, name := range names {
		e := r.entry(name, false)
		if e == nil {
			continue
		}
		e.mu.Lock()
		cur := e.current.Load()
		row := RegistrySysRow{
			Model:      name,
			Versions:   len(e.history),
			MaxHistory: r.maxHistory,
		}
		for _, mv := range e.history {
			row.CenterBytes += int64(mv.Model.K()) * int64(mv.Model.Dim()) * 8
		}
		if cur != nil {
			row.CurrentVersion = cur.Version
			row.K, row.Dim = cur.Model.K(), cur.Model.Dim()
			row.Source, row.Optimizer = cur.Source, cur.Optimizer
			row.Precision = cur.Model.PredictPrecision().String()
			row.CreatedAt = cur.CreatedAt.Format(time.RFC3339Nano)
		}
		e.mu.Unlock()
		out = append(out, row)
	}
	return out
}
