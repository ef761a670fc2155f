package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kmeansll"
)

// ErrStreamDeleted reports an ingest or refit that raced a Delete: the
// caller's stream handle is stale and nothing was published.
var ErrStreamDeleted = errors.New("stream deleted")

// DefaultRefitEvery is the ingest count between automatic refits of a
// stream's registry model.
const DefaultRefitEvery = 256

// StreamSpec configures one online ingest stream (the JSON body of
// POST /v1/streams/{name}).
type StreamSpec struct {
	K           int `json:"k"`
	Dim         int `json:"dim"`
	CoresetSize int `json:"coreset_size,omitempty"`
	RefitEvery  int `json:"refit_every,omitempty"`
	// Optimizer selects the refinement each refit runs over the coreset —
	// the same spec fit jobs accept. Absent means lloyd:naive.
	Optimizer *kmeansll.OptimizerSpec `json:"optimizer,omitempty"`
	// MaxIter caps each refit's refinement iterations (0 = 100).
	MaxIter int    `json:"max_iter,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
}

// streamEntry is one live stream. The coreset update is inherently
// sequential, so a per-stream mutex serializes ingest batches (and is held
// across refits); distinct streams ingest concurrently. Status counters are
// atomics so GET /v1/streams and /v1/sys/streams never block behind a refit in
// progress.
type streamEntry struct {
	name    string
	spec    StreamSpec
	created time.Time

	points         atomic.Int64
	refitCount     atomic.Int64
	lastIngestNano atomic.Int64 // 0 until the first ingest
	pending        atomic.Int64 // points consumed since the last refit (refit lag)
	lastRefitNano  atomic.Int64 // 0 until the first refit
	lastRefitDur   atomic.Int64 // duration of the last refit, nanoseconds

	mu         sync.Mutex
	sc         *kmeansll.StreamingClusterer
	sinceRefit int
}

// StreamStatus is the JSON view of a stream.
type StreamStatus struct {
	Name       string     `json:"name"`
	Spec       StreamSpec `json:"spec"`
	Points     int        `json:"points"`
	Refits     int        `json:"refits"`
	CreatedAt  string     `json:"created_at"`
	LastIngest string     `json:"last_ingest,omitempty"`
}

// StreamManager owns the online ingest streams. Every stream feeds a
// StreamingClusterer (bounded-memory StreamKM++ coreset) and republishes a
// k-clustering of everything seen so far into the registry every RefitEvery
// points, so a long-lived stream continuously refreshes the served centers
// under the stream's name.
type StreamManager struct {
	registry *Registry
	mu       sync.Mutex
	streams  map[string]*streamEntry
}

// NewStreamManager creates an empty stream manager publishing into reg.
func NewStreamManager(reg *Registry) *StreamManager {
	return &StreamManager{registry: reg, streams: make(map[string]*streamEntry)}
}

// Create registers a new stream. The name doubles as the registry model
// name its refits publish to.
func (m *StreamManager) Create(name string, spec StreamSpec) (*streamEntry, error) {
	if !ValidModelName(name) {
		return nil, fmt.Errorf("invalid stream name %q", name)
	}
	if spec.RefitEvery <= 0 {
		spec.RefitEvery = DefaultRefitEvery
	}
	var optimizer kmeansll.Optimizer
	if spec.Optimizer != nil {
		var err error
		if optimizer, err = spec.Optimizer.Optimizer(); err != nil {
			return nil, err
		}
	}
	sc, err := kmeansll.NewStreamingClusterer(kmeansll.StreamingConfig{
		K: spec.K, Dim: spec.Dim, CoresetSize: spec.CoresetSize,
		MaxIter: spec.MaxIter, Optimizer: optimizer, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	e := &streamEntry{name: name, spec: spec, sc: sc, created: time.Now().UTC()}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.streams[name]; exists {
		return nil, fmt.Errorf("stream %q already exists", name)
	}
	m.streams[name] = e
	return e, nil
}

// Get returns a stream by name.
func (m *StreamManager) Get(name string) (*streamEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.streams[name]
	return e, ok
}

// Delete removes a stream (its published models stay in the registry).
func (m *StreamManager) Delete(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.streams[name]
	delete(m.streams, name)
	return ok
}

// List returns stream statuses sorted by name.
func (m *StreamManager) List() []StreamStatus {
	m.mu.Lock()
	entries := make([]*streamEntry, 0, len(m.streams))
	for _, e := range m.streams {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]StreamStatus, len(entries))
	for i, e := range entries {
		out[i] = e.status()
	}
	return out
}

// status snapshots the stream from its atomic counters without touching
// e.mu, so it stays responsive while a refit clusters the coreset.
func (e *streamEntry) status() StreamStatus {
	s := StreamStatus{
		Name: e.name, Spec: e.spec,
		Points: int(e.points.Load()), Refits: int(e.refitCount.Load()),
		CreatedAt: e.created.Format(time.RFC3339Nano),
	}
	if n := e.lastIngestNano.Load(); n != 0 {
		s.LastIngest = time.Unix(0, n).UTC().Format(time.RFC3339Nano)
	}
	return s
}

// Ingest feeds a batch of points into the stream, refitting the registry
// model each time RefitEvery further points have been consumed. It returns
// the stream's total point count and how many refits this batch triggered.
func (m *StreamManager) Ingest(e *streamEntry, points [][]float64) (total, refits int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() {
		e.points.Store(int64(e.sc.N()))
		e.lastIngestNano.Store(time.Now().UTC().UnixNano())
	}()
	for i, p := range points {
		if err := e.sc.Add(p); err != nil {
			return e.sc.N(), refits, fmt.Errorf("point %d: %w", i, err)
		}
		e.sinceRefit++
		e.pending.Store(int64(e.sinceRefit))
		if e.sinceRefit >= e.spec.RefitEvery {
			if err := m.refitLocked(e); err != nil {
				return e.sc.N(), refits, err
			}
			refits++
		}
	}
	return e.sc.N(), refits, nil
}

// Refit forces an immediate refit regardless of the RefitEvery counter.
func (m *StreamManager) Refit(e *streamEntry) (*ModelVersion, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := m.refitLocked(e); err != nil {
		return nil, err
	}
	mv, _ := m.registry.Get(e.name)
	return mv, nil
}

// refitLocked clusters the current coreset and publishes the model. Callers
// hold e.mu.
func (m *StreamManager) refitLocked(e *streamEntry) error {
	begin := time.Now()
	model, err := e.sc.Model()
	if err != nil {
		return err
	}
	// Publish under m.mu with a membership recheck: the caller resolved e
	// via Get before taking e.mu, so a concurrent Delete may have removed
	// the stream in between — publishing then would silently resurrect the
	// deleted name in the registry. Holding m.mu across the Publish closes
	// the window entirely (Delete serializes behind it). Lock order is
	// always e.mu → m.mu, never the reverse, so this cannot deadlock.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.streams[e.name] != e {
		return fmt.Errorf("stream %q: %w", e.name, ErrStreamDeleted)
	}
	if _, err := m.registry.PublishMeta(e.name, model, "stream:"+e.name, e.sc.Optimizer()); err != nil {
		return err
	}
	e.refitCount.Add(1)
	e.sinceRefit = 0
	e.pending.Store(0)
	e.lastRefitNano.Store(time.Now().UTC().UnixNano())
	e.lastRefitDur.Store(time.Since(begin).Nanoseconds())
	return nil
}

// StreamSysRow is one row of the /v1/sys/streams virtual table: the memory
// and refit posture of one live stream. CoresetPoints is the number of
// points the bounded StreamKM++ summary currently buffers (the stream's
// actual memory footprint, as opposed to Points, the lifetime total); it is
// -1 with Busy=true when the stream's mutex was held (an ingest or refit in
// progress) — the table never blocks behind a refit.
type StreamSysRow struct {
	Name            string  `json:"name"`
	Points          int64   `json:"points"`
	CoresetPoints   int     `json:"coreset_points"`
	Busy            bool    `json:"busy,omitempty"`
	Refits          int64   `json:"refits"`
	RefitEvery      int     `json:"refit_every"`
	SinceRefit      int64   `json:"points_since_refit"`
	LastRefitAt     string  `json:"last_refit_at,omitempty"`
	LastRefitMillis float64 `json:"last_refit_ms,omitempty"`
	LastIngestAt    string  `json:"last_ingest_at,omitempty"`
	CreatedAt       string  `json:"created_at"`
}

// sysRows renders the stream occupancy table, sorted by name.
func (m *StreamManager) sysRows() []StreamSysRow {
	m.mu.Lock()
	entries := make([]*streamEntry, 0, len(m.streams))
	for _, e := range m.streams {
		entries = append(entries, e)
	}
	m.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]StreamSysRow, len(entries))
	for i, e := range entries {
		row := StreamSysRow{
			Name:          e.name,
			Points:        e.points.Load(),
			CoresetPoints: -1,
			Refits:        e.refitCount.Load(),
			RefitEvery:    e.spec.RefitEvery,
			SinceRefit:    e.pending.Load(),
			CreatedAt:     e.created.Format(time.RFC3339Nano),
		}
		if e.mu.TryLock() {
			row.CoresetPoints = e.sc.Buffered()
			e.mu.Unlock()
		} else {
			row.Busy = true
		}
		if n := e.lastRefitNano.Load(); n != 0 {
			row.LastRefitAt = time.Unix(0, n).UTC().Format(time.RFC3339Nano)
			row.LastRefitMillis = float64(e.lastRefitDur.Load()) / 1e6
		}
		if n := e.lastIngestNano.Load(); n != 0 {
			row.LastIngestAt = time.Unix(0, n).UTC().Format(time.RFC3339Nano)
		}
		out[i] = row
	}
	return out
}
