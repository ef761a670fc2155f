package distkm

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"path/filepath"
	"sync"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

// shard is one contiguous span of the global dataset living on this worker,
// together with the data-local D² cache the sampling rounds maintain and
// each point's nearest candidate beside it — the state a Hadoop
// implementation persists alongside its split between jobs.
type shard struct {
	lo   int       // global index of point 0
	data shardData // the points, in the precision LoadArgs.Float32 chose
	d2   []float64 // w_i · d²(x_i, C), +Inf before the first update pass
	near []int32   // the candidate row d2[i] was last lowered by: x_i's nearest
	// folded counts the candidate rows folded into d2 since the cache was
	// last reset; Weights must ask for exactly that many.
	folded int

	// lastUsed (guarded by the worker mutex) feeds the janitor: a fit whose
	// coordinator died without a clean Release would otherwise strand its
	// dataset copy on a long-lived shared worker forever.
	lastUsed time.Time

	// closers hold the mmap readers backing a path-loaded shard; dropping
	// the shard must unmap them or a long-lived worker leaks address space.
	closers []io.Closer

	// refs counts in-flight RPCs reading this shard and dropped marks it
	// removed from the worker's map (both guarded by the worker mutex).
	// Push-mode shards are plain GC-managed memory, but a pull-mode shard
	// aliases mmap'd pages: munmapping while a stale call still scans it
	// would SIGSEGV the whole worker process, so the mapping is only closed
	// once the shard is dropped AND the last reader has finished.
	refs    int
	dropped bool
}

// shardData is a shard's points in either storage precision. Every method
// runs over the whole shard the code an in-process chunk runs over the
// matching span (geom.FoldNearest, core.NearWeights, lloyd.StepSpan,
// lloyd.FarthestSpan, and lloyd.Cost and lloyd.Assign at parallelism 1), so
// a worker's partials are bit-identical to the in-process ones. Centers
// arrive as float64 off the wire and are narrowed once per call; candidates
// are data points, so narrowing recovers their exact storage bits.
type shardData interface {
	n() int
	dim() int
	point(i int) []float64 // widened to float64 (exact)
	update(d2 []float64, near []int32, centers *geom.Matrix, first int) float64
	weights(near []int32, candidates int) []float64
	lloyd(centers *geom.Matrix) (*geom.Matrix, float64)
	farthest(centers *geom.Matrix) (int, float64)
	cost(centers *geom.Matrix) float64
	assign(centers *geom.Matrix) ([]int32, float64)
}

// points is shardData over storage type T.
type points[T geom.Float] struct{ ds *geom.Set[T] }

func (p points[T]) n() int   { return p.ds.N() }
func (p points[T]) dim() int { return p.ds.Dim() }

func (p points[T]) point(i int) []float64 {
	return geom.WidenRow(make([]float64, p.ds.Dim()), p.ds.Point(i))
}

func (p points[T]) update(d2 []float64, near []int32, centers *geom.Matrix, first int) float64 {
	return geom.FoldNearest(p.ds, d2, near, 0, p.ds.N(), geom.Convert[T](centers), first)
}

func (p points[T]) weights(near []int32, candidates int) []float64 {
	return core.NearWeights(p.ds, near, 0, candidates)
}

func (p points[T]) lloyd(centers *geom.Matrix) (*geom.Matrix, float64) {
	return lloyd.StepSpan(p.ds, 0, p.ds.N(), geom.Convert[T](centers))
}

func (p points[T]) farthest(centers *geom.Matrix) (int, float64) {
	return lloyd.FarthestSpan(p.ds, 0, p.ds.N(), geom.Convert[T](centers))
}

func (p points[T]) cost(centers *geom.Matrix) float64 {
	return lloyd.Cost(p.ds, geom.Convert[T](centers), 1)
}

func (p points[T]) assign(centers *geom.Matrix) ([]int32, float64) {
	return lloyd.Assign(p.ds, geom.Convert[T](centers), 1)
}

// closeMaps unmaps the shard's backing files. Callers must guarantee no
// reader is in flight (refs == 0 after drop).
func (s *shard) closeMaps() {
	for _, c := range s.closers {
		_ = c.Close()
	}
	s.closers = nil
}

// Worker is the RPC service one kmworker process exposes. A worker starts
// empty; coordinators push shards with Load and may push additional shards
// later when they re-assign work from a failed peer. Shards are keyed by
// (fit id, shard number), so concurrent fits from different coordinators can
// share one worker without stepping on each other's data. All methods are
// safe for concurrent use (net/rpc dispatches concurrently); calls for one
// shard are serialized by its coordinator's round structure.
type Worker struct {
	mu     sync.Mutex
	shards map[ShardRef]*shard

	// dataDir, when non-empty, is the root LoadPath resolves shard file
	// paths under. Empty means the pull path is disabled (push-only worker).
	dataDir string
}

// NewWorker returns an empty worker ready to register with an RPC server.
func NewWorker() *Worker {
	return &Worker{shards: make(map[ShardRef]*shard)}
}

// SetDataDir enables the pull path: LoadPath requests resolve their relative
// file paths under dir (kmworker -data-dir). Call before serving.
func (w *Worker) SetDataDir(dir string) { w.dataDir = dir }

// shardByRef pins the shard for one RPC: the caller must pair it with done,
// which releases the pin and unmaps a dropped shard once the last reader is
// out.
func (w *Worker) shardByRef(ref ShardRef) (*shard, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.shards[ref]
	if !ok {
		return nil, fmt.Errorf("distkm: worker has no shard %d of fit %d", ref.Shard, ref.Fit)
	}
	//kmlint:ignore determinism lastUsed only feeds the shard-TTL janitor, never the fit
	s.lastUsed = time.Now()
	s.refs++
	return s, nil
}

// done releases a shardByRef pin.
func (w *Worker) done(s *shard) {
	w.mu.Lock()
	s.refs--
	drop := s.dropped && s.refs == 0
	w.mu.Unlock()
	if drop {
		s.closeMaps()
	}
}

// dropLocked marks s removed and reports whether the caller should close its
// mappings now (no readers in flight). Callers hold w.mu.
func dropLocked(s *shard) (closeNow bool) {
	s.dropped = true
	return s.refs == 0
}

// Load installs (or replaces) a shard. The D² cache starts at +Inf, i.e.
// "no centers seen yet"; after a failover the coordinator rebuilds it by
// replaying its fold groups, the first of which resets it.
// The shape is checked here even though decoding a Mat off the wire already
// rejects a bad one: in-process callers reach Load without the codec.
func (w *Worker) Load(args LoadArgs, _ *Ack) error {
	p := args.Points
	// At least one column, so the values sent bound the rows install
	// allocates for: a zero-width shape fits any row count.
	if !shapeFits(p.Rows, p.Cols, len(p.Data)) || p.Cols < 1 {
		return fmt.Errorf("distkm: Load shard %d: %d×%d points but %d values",
			args.Ref.Shard, p.Rows, p.Cols, len(p.Data))
	}
	if args.Weights != nil && len(args.Weights) != p.Rows {
		return fmt.Errorf("distkm: Load shard %d: %d weights for %d points",
			args.Ref.Shard, len(args.Weights), p.Rows)
	}
	ds := &geom.Dataset{X: p.matrix(), Weight: args.Weights}
	if args.Float32 {
		w.install(args.Ref, args.Lo, points[float32]{geom.ConvertSet[float32](ds)}, nil)
		return nil
	}
	w.install(args.Ref, args.Lo, points[float64]{ds}, nil)
	return nil
}

// install records a shard under ref, releasing any mapping a replaced shard
// held. The D² cache starts at +Inf ("no centers seen yet").
func (w *Worker) install(ref ShardRef, lo int, data shardData, closers []io.Closer) {
	d2 := make([]float64, data.n())
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	//kmlint:ignore determinism lastUsed only feeds the shard-TTL janitor, never the fit
	s := &shard{lo: lo, data: data, d2: d2, near: make([]int32, data.n()), lastUsed: time.Now(), closers: closers}
	w.installShard(ref, s)
}

// installShard swaps s into the shard map under ref, releasing any mapping a
// replaced shard held.
func (w *Worker) installShard(ref ShardRef, s *shard) {
	w.mu.Lock()
	old := w.shards[ref]
	closeOld := old != nil && dropLocked(old)
	w.shards[ref] = s
	w.mu.Unlock()
	if closeOld {
		old.closeMaps()
	}
}

// LoadPath installs a shard from local dataset files instead of wire-pushed
// points: each segment names a row range of one .kmd file under the worker's
// data dir. A single-segment shard aliases the mmap directly (zero copy);
// multi-segment shards copy the rows into one contiguous matrix so the
// kernels see the same layout either way. A float32 shard over a float32
// .kmd file aliases the mapped pages too; float64 files narrow into a
// private copy on open. Before anything is installed every row is checked
// finite (and every weight positive) in the precision the shard stores, and
// the error names the part file and the row.
func (w *Worker) LoadPath(args LoadPathArgs, _ *Ack) error {
	if w.dataDir == "" {
		return fmt.Errorf("distkm: worker was not started with a data dir; path loads are disabled")
	}
	if len(args.Segs) == 0 {
		return fmt.Errorf("distkm: LoadPath shard %d: no segments", args.Ref.Shard)
	}
	if args.Float32 {
		return loadPath(w, args, (*dsio.Reader).Dataset32)
	}
	return loadPath(w, args, (*dsio.Reader).Dataset)
}

// loadPath is LoadPath over storage type T; view opens a reader's rows as T.
func loadPath[T geom.Float](w *Worker, args LoadPathArgs, view func(*dsio.Reader) *geom.Set[T]) error {
	var (
		readers []io.Closer
		dim     = -1
		total   int
		weight  = false
	)
	fail := func(err error) error {
		for _, r := range readers {
			_ = r.Close()
		}
		return err
	}
	parts := make([]*geom.Set[T], len(args.Segs))
	for i, seg := range args.Segs {
		if seg.Path == "" || !filepath.IsLocal(seg.Path) {
			return fail(fmt.Errorf("distkm: LoadPath shard %d: path %q escapes the data dir", args.Ref.Shard, seg.Path))
		}
		r, err := dsio.Open(filepath.Join(w.dataDir, seg.Path))
		if err != nil {
			return fail(fmt.Errorf("distkm: LoadPath shard %d: %v", args.Ref.Shard, err))
		}
		readers = append(readers, r)
		ds := view(r)
		if seg.Lo < 0 || seg.Hi > ds.N() || seg.Lo >= seg.Hi {
			return fail(fmt.Errorf("distkm: LoadPath shard %d: rows [%d,%d) outside %s's %d rows",
				args.Ref.Shard, seg.Lo, seg.Hi, seg.Path, ds.N()))
		}
		if i == 0 {
			dim, weight = ds.Dim(), ds.Weight != nil
		} else if ds.Dim() != dim || (ds.Weight != nil) != weight {
			return fail(fmt.Errorf("distkm: LoadPath shard %d: %s disagrees on dims/weighting", args.Ref.Shard, seg.Path))
		}
		v := ds.X.RowRange(seg.Lo, seg.Hi)
		part := &geom.Set[T]{X: &v}
		if ds.Weight != nil {
			part.Weight = ds.Weight[seg.Lo:seg.Hi]
		}
		if err := checkRows(part, seg); err != nil {
			return fail(fmt.Errorf("distkm: LoadPath shard %d: %v", args.Ref.Shard, err))
		}
		parts[i] = part
		total += seg.Hi - seg.Lo
	}

	if len(parts) == 1 {
		w.install(args.Ref, args.Lo, points[T]{parts[0]}, readers)
		return nil
	}
	x := geom.NewMat[T](total, dim)
	var ww []float64
	if weight {
		ww = make([]float64, 0, total)
	}
	at := 0
	for _, part := range parts {
		copy(x.Data[at*dim:], part.X.Data)
		at += part.N()
		if weight {
			ww = append(ww, part.Weight...)
		}
	}
	for _, r := range readers {
		_ = r.Close() // rows are copied; the mappings can go
	}
	w.install(args.Ref, args.Lo, points[T]{&geom.Set[T]{X: x, Weight: ww}}, nil)
	return nil
}

// checkRows applies geom.Set.Validate's value rule — finite coordinates,
// positive weights — to one segment's rows, naming the part file and the
// row within it. Every push and in-process path validates its dataset before
// fitting; a pull load reads its rows straight from disk, so it checks them
// here, one pass over the segment, before they are installed.
func checkRows[T geom.Float](part *geom.Set[T], seg PathSeg) error {
	for i := 0; i < part.N(); i++ {
		for _, v := range part.Point(i) {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("%s row %d: non-finite value %v", seg.Path, seg.Lo+i, f)
			}
		}
		if part.Weight != nil && !(part.Weight[i] > 0) {
			return fmt.Errorf("%s row %d: non-positive weight %v", seg.Path, seg.Lo+i, part.Weight[i])
		}
	}
	return nil
}

// Update folds the broadcast group of candidates (at least one) into the
// shard's D² cache and its nearest rows, and returns the shard's φ
// partial. The loop is geom.FoldNearest — the literally shared span body —
// so the partial is bit-identical to the in-process backend's. A group at
// row 0 resets the cache first. Folding a group again leaves the cache as
// it was, so a repeated Update is harmless.
func (w *Worker) Update(args UpdateArgs, reply *CostReply) error {
	s, err := w.shardByRef(args.Ref)
	if err != nil {
		return err
	}
	defer w.done(s)
	centers, err := args.New.checked(s.data.dim(), 1)
	if err != nil {
		return err
	}
	switch {
	case args.First == 0:
		for i := range s.d2 {
			s.d2[i], s.near[i] = math.Inf(1), 0
		}
	case args.First < 0 || args.First > s.folded:
		return fmt.Errorf("distkm: shard %d: fold group starts at candidate %d, but %d are folded",
			args.Ref.Shard, args.First, s.folded)
	}
	reply.Phi = s.data.update(s.d2, s.near, centers, args.First)
	s.folded = args.First + centers.Rows
	return nil
}

// Sample is the Bernoulli selection over the cached D² weights
// (core.SampleSpan): the selected global indices and their points. No
// distance work happens — the cache is current after the last Update.
func (w *Worker) Sample(args SampleArgs, reply *SampleReply) error {
	s, err := w.shardByRef(args.Ref)
	if err != nil {
		return err
	}
	defer w.done(s)
	reply.Indices = core.SampleSpan(s.d2, s.lo, args.Phi, args.Ell, args.Seed, args.Round)
	pts := geom.NewMatrix(len(reply.Indices), s.data.dim())
	for j, i := range reply.Indices {
		copy(pts.Row(j), s.data.point(i-s.lo)) // float32 rows widen exactly
	}
	reply.Points = matOf(pts.Rows, pts.Cols, pts.Data)
	return nil
}

// centersCall pins the shard for one centers-taking RPC, validates the
// broadcast centers, and runs call on them.
func (w *Worker) centersCall(args CentersArgs, call func(s *shard, centers *geom.Matrix)) error {
	s, err := w.shardByRef(args.Ref)
	if err != nil {
		return err
	}
	defer w.done(s)
	centers, err := args.Centers.checked(s.data.dim(), 1)
	if err != nil {
		return err
	}
	call(s, centers)
	return nil
}

// Weights is the Step 7 partial: for each candidate, the total weight of the
// shard's points whose nearest candidate it is (core.NearWeights over the
// rows the folds recorded). It rejects a candidate count other than the
// rows folded since the cache was reset.
func (w *Worker) Weights(args WeightsArgs, reply *WeightsReply) error {
	s, err := w.shardByRef(args.Ref)
	if err != nil {
		return err
	}
	defer w.done(s)
	if args.Candidates < 1 || args.Candidates != s.folded {
		return fmt.Errorf("distkm: shard %d: Weights over %d candidates, but %d are folded",
			args.Ref.Shard, args.Candidates, s.folded)
	}
	reply.W = s.data.weights(s.near, args.Candidates)
	return nil
}

// LloydStep is one Lloyd iteration's map side: per-center Σw·x and Σw over
// the shard, plus the assignment-cost partial (lloyd.StepSpan). Centers the
// shard never assigns to keep all-zero rows; a center whose total weight is
// zero over every shard is an empty cluster, which the driver reseeds.
func (w *Worker) LloydStep(args CentersArgs, reply *LloydReply) error {
	return w.centersCall(args, func(s *shard, centers *geom.Matrix) {
		sums, phi := s.data.lloyd(centers)
		reply.Sums = matOf(sums.Rows, sums.Cols, sums.Data)
		reply.Phi = phi
	})
}

// Farthest returns the global index and the weighted cost w·d²(x, centers)
// of the shard's costliest point, the lowest index on ties
// (lloyd.FarthestSpan): the shard's candidate for an empty cluster's
// reseed.
func (w *Worker) Farthest(args CentersArgs, reply *FarthestReply) error {
	return w.centersCall(args, func(s *shard, centers *geom.Matrix) {
		i, cost := s.data.farthest(centers)
		reply.Index, reply.Cost = s.lo+i, cost
	})
}

// Cost returns the shard's φ partial against an arbitrary center set
// (the seed-cost pass, lloyd.Cost).
func (w *Worker) Cost(args CentersArgs, reply *CostReply) error {
	return w.centersCall(args, func(s *shard, centers *geom.Matrix) {
		reply.Phi = s.data.cost(centers)
	})
}

// Assign returns the shard's nearest-center assignment (shard order) and its
// cost partial — the final pass a fit uses to report per-point clusters
// (lloyd.Assign).
func (w *Worker) Assign(args CentersArgs, reply *AssignReply) error {
	return w.centersCall(args, func(s *shard, centers *geom.Matrix) {
		reply.Assign, reply.Phi = s.data.assign(centers)
	})
}

// Fetch returns the point with the given global index (Step 1's first
// center lives on whichever worker owns that span).
func (w *Worker) Fetch(args FetchArgs, reply *FetchReply) error {
	s, err := w.shardByRef(args.Ref)
	if err != nil {
		return err
	}
	defer w.done(s)
	i := args.Index - s.lo
	if i < 0 || i >= s.data.n() {
		return fmt.Errorf("distkm: shard %d does not own global index %d", args.Ref.Shard, args.Index)
	}
	reply.Point = s.data.point(i)
	return nil
}

// Release drops every shard belonging to the given fit. Coordinators call
// it on Close so shared long-lived workers do not accumulate dead datasets.
func (w *Worker) Release(args ReleaseArgs, _ *Ack) error {
	w.dropShards(func(ref ShardRef, _ *shard) bool { return ref.Fit == args.Fit })
	return nil
}

// Drop removes one shard, if present (a no-op otherwise — the coordinator's
// rebalancing treats it as best effort). Used after a steal so the donor does
// not keep serving memory for a shard it no longer owns.
func (w *Worker) Drop(args DropArgs, _ *Ack) error {
	w.dropShards(func(ref ShardRef, _ *shard) bool { return ref == args.Ref })
	return nil
}

// dropShards removes every shard drop selects, calling drop under w.mu, and
// unmaps those no RPC is reading; done unmaps the rest when their last
// reader finishes.
func (w *Worker) dropShards(drop func(ShardRef, *shard) bool) {
	w.mu.Lock()
	var closeNow []*shard
	//kmlint:ignore determinism drop order does not feed any reduced output; shards are independent
	for ref, s := range w.shards {
		if drop(ref, s) {
			if dropLocked(s) {
				closeNow = append(closeNow, s)
			}
			delete(w.shards, ref)
		}
	}
	w.mu.Unlock()
	for _, s := range closeNow {
		s.closeMaps()
	}
}

// StartJanitor expires shards that no RPC has touched for ttl, sweeping
// every ttl/10. Coordinators normally Release their shards on Close, but a
// coordinator that crashes (or a kmcoord that os.Exits on an error path)
// never does; on a long-lived shared worker those dataset copies would
// accumulate forever. Active fits touch every shard once per round, so any
// ttl comfortably above a round interval is safe. The returned stop function
// halts the sweeper; kmworker runs it for the process lifetime.
func (w *Worker) StartJanitor(ttl time.Duration) (stop func()) {
	if ttl <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(ttl / 10)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-ticker.C:
				w.dropShards(func(_ ShardRef, s *shard) bool { return now.Sub(s.lastUsed) > ttl })
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Status reports what the worker holds (health checks, kmworker logging).
func (w *Worker) Status(_ Ack, reply *StatusReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	reply.Shards = len(w.shards)
	//kmlint:ignore determinism status totals are order-insensitive sums of ints
	for _, s := range w.shards {
		reply.Points += s.data.n()
	}
	return nil
}

func (m Mat) matrix() *geom.Matrix {
	return &geom.Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
}

// checked validates a matrix received off the wire before any kernel touches
// it: consistent shape, the shard's dimensionality, and at least minRows
// rows. Without this a malformed or version-skewed request would panic
// inside the RPC goroutine and take down a shared worker process — along
// with every other fit's shards it holds.
func (m Mat) checked(dim, minRows int) (*geom.Matrix, error) {
	if !shapeFits(m.Rows, m.Cols, len(m.Data)) {
		return nil, fmt.Errorf("distkm: malformed matrix: %d×%d with %d values", m.Rows, m.Cols, len(m.Data))
	}
	if m.Rows < minRows {
		return nil, fmt.Errorf("distkm: need at least %d center row(s), got %d", minRows, m.Rows)
	}
	if m.Rows > 0 && m.Cols != dim {
		return nil, fmt.Errorf("distkm: centers have dim %d, shard has dim %d", m.Cols, dim)
	}
	return m.matrix(), nil
}

// rpcServer wraps w in a net/rpc server under the service name "Worker".
func rpcServer(w *Worker) *rpc.Server {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		panic(err) // method-set mismatch is a programming error
	}
	return srv
}

// Serve accepts connections on ln and serves w until the listener closes.
// Each connection is served on its own goroutine; cmd/kmworker calls this as
// its main loop.
func (w *Worker) Serve(ln net.Listener) error {
	srv := rpcServer(w)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go srv.ServeConn(conn)
	}
}
