package distkm

import (
	"errors"
	"fmt"
	"math"
	"net/rpc"
	"path"
	"sync"
	"sync/atomic"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/mrkm"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// Stats describes a distributed run, mirroring mrkm.Stats with the network
// quantities added.
type Stats struct {
	// RPCRounds counts barrier-synchronized fan-outs (one per "MR job" of the
	// mrkm realization: cost pass, sampling pass, weighting, Lloyd iteration).
	RPCRounds int
	// Calls counts individual shard RPCs issued, including failover retries.
	Calls int64
	// Failovers counts shard re-assignments after a worker failure.
	Failovers int
	// Retries counts shard RPC attempts repeated after a transient fault —
	// faults absorbed by backoff without costing a failover.
	Retries int64
	// Candidates is |C| before reclustering (Init only).
	Candidates int
	// Psi is φ after the first center (Init only).
	Psi float64
	// PhiTrace is φ after each sampling round (Init only).
	PhiTrace []float64
	// SeedCost is φ_X of the k centers Init produced.
	SeedCost float64
}

// Coordinator drives k-means|| rounds and Lloyd iterations over remote shard
// workers. It holds no point data on the hot path — only the (small) center
// set crosses the network each round, exactly the property that lets the
// paper's algorithm run on a share-nothing cluster — but it retains the
// dataset it distributed so it can re-push a shard when a worker dies.
//
// All floating-point reductions run in fixed shard order, so for W workers
// the results are bit-identical to mrkm.Init/mrkm.Lloyd with Mappers: W
// (which reduce in mapper order over the same spans), regardless of which
// physical worker computed which partial and of any mid-run failovers.
type Coordinator struct {
	fit     uint64 // unique id namespacing this coordinator's shards on shared workers
	clients []Client
	ds      *geom.Dataset // push mode only; nil when shards were loaded by path
	spans   []mrkm.Span

	// Dataset metadata shared by both load modes. In push mode it mirrors
	// ds; in pull (manifest) mode it is all the coordinator ever holds — the
	// points live exclusively on the workers.
	n, dim   int
	weighted bool
	// segs, in pull mode, maps each shard to the file row ranges that
	// compose it, so failover can re-issue the LoadPath instead of re-pushing
	// data the coordinator never had.
	segs [][]PathSeg

	// man/manPrefix are retained in pull mode so a resume can re-shard the
	// manifest to the checkpoint's span count (segs depend on the spans).
	man       *dsio.Manifest
	manPrefix string

	// float32 selects the float32 shard form: workers store narrowed points
	// and answer every distance pass with mrkm's span bodies over them,
	// making the fit bit-identical to mrkm.Init+Lloyd over float32 points at
	// Mappers = Workers. Set by SetFloat32 before Distribute.
	float32 bool

	mu       sync.Mutex
	assign   []int  // shard -> worker index
	alive    []bool // worker index -> reachable
	lastCkpt *CheckpointInfo

	// folded records the Update groups already folded into every shard's D²
	// cache; a failover re-load replays them before the failed call is
	// retried.
	folded cacheLog

	// pending holds workers handed to AddWorker but not yet admitted; they
	// enter the live set at the next fan-out barrier (membership.go).
	pendMu  sync.Mutex
	pending []Client

	// retry bounds per-worker attempts before failover (retry.go); jrng
	// drives backoff jitter only — never the fit's arithmetic.
	retry RetryPolicy
	jmu   sync.Mutex
	jrng  *rng.Rng

	ckpt *Checkpointer

	rpcRounds atomic.Int64
	calls     atomic.Int64
	failovers atomic.Int64
	retries   atomic.Int64
	joins     atomic.Int64
}

// NewCoordinator wraps the given worker connections. Call Distribute before
// fitting.
func NewCoordinator(clients []Client) (*Coordinator, error) {
	if len(clients) == 0 {
		return nil, errors.New("distkm: need at least one worker")
	}
	alive := make([]bool, len(clients))
	for i := range alive {
		alive[i] = true
	}
	c := &Coordinator{fit: newFitID(), clients: clients, alive: alive}
	c.jrng = rng.New(c.fit) // backoff jitter only; independent of fit seeds
	return c, nil
}

// fitSeq disambiguates coordinators created in the same nanosecond within
// one process; the timestamp disambiguates across processes sharing workers.
var fitSeq atomic.Uint64

func newFitID() uint64 {
	//kmlint:ignore determinism fit ids only namespace shards on shared workers; no sampled or reduced value depends on them
	return uint64(time.Now().UnixNano())<<8 | (fitSeq.Add(1) & 0xff)
}

// ref names one of this coordinator's shards on the wire.
func (c *Coordinator) ref(shardID int) ShardRef { return ShardRef{Fit: c.fit, Shard: shardID} }

// SetFloat32 selects the precision of the workers' distance passes: with on,
// shards are stored as float32 and every per-shard primitive runs the same
// float32 span bodies as mrkm.Init/Lloyd, so the fit is bit-identical to
// the in-process float32 realization at Mappers = Workers (all workers must
// resolve the same float32 kernel tier — see geom.ActiveF32Tier). Reductions,
// sampling and Step 8 stay float64 on the coordinator either way. Call before
// Distribute/DistributeManifest; the flag applies to every shard load,
// including failover re-pushes.
func (c *Coordinator) SetFloat32(on bool) { c.float32 = on }

// Float32 reports the precision selected by SetFloat32.
func (c *Coordinator) Float32() bool { return c.float32 }

// Workers returns how many worker connections the coordinator holds,
// including joiners admitted mid-fit.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.clients)
}

// Shards returns how many shards the dataset was split into.
func (c *Coordinator) Shards() int { return len(c.spans) }

// WorkerState is one worker's row in a coordinator Snapshot: whether the
// coordinator still considers it reachable, and which shards (hence how many
// rows) it currently owns. After a failover a dead worker's shards appear
// under the worker that adopted them.
type WorkerState struct {
	Worker int   `json:"worker"`
	Alive  bool  `json:"alive"`
	Shards []int `json:"shards,omitempty"`
	Rows   int   `json:"rows"`
}

// Snapshot is a point-in-time view of a coordinator mid-fit, for serving
// tiers that expose distributed-fit state (kmserved's /v1/sys/dist).
type Snapshot struct {
	Fit        uint64          `json:"fit"`
	N          int             `json:"n"`
	Dim        int             `json:"dim"`
	Shards     int             `json:"shards"`
	RPCRounds  int64           `json:"rpc_rounds"`
	Calls      int64           `json:"calls"`
	Failovers  int64           `json:"failovers"`
	Retries    int64           `json:"retries"`
	Joins      int64           `json:"joins"`
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`
	Workers    []WorkerState   `json:"workers"`
}

// Snapshot captures the coordinator's current shard assignment and RPC
// lifetime totals. Safe to call concurrently with a running fit; before
// Distribute the worker list is present but owns nothing.
func (c *Coordinator) Snapshot() Snapshot {
	s := Snapshot{
		Fit: c.fit, N: c.n, Dim: c.dim, Shards: len(c.spans),
		RPCRounds: c.rpcRounds.Load(),
		Calls:     c.calls.Load(),
		Failovers: c.failovers.Load(),
		Retries:   c.retries.Load(),
		Joins:     c.joins.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Checkpoint = c.lastCkpt
	s.Workers = make([]WorkerState, len(c.clients))
	for w := range s.Workers {
		s.Workers[w] = WorkerState{Worker: w, Alive: w < len(c.alive) && c.alive[w]}
	}
	for shard, w := range c.assign {
		if w < 0 || w >= len(s.Workers) {
			continue
		}
		ws := &s.Workers[w]
		ws.Shards = append(ws.Shards, shard)
		ws.Rows += c.spans[shard].Hi - c.spans[shard].Lo
	}
	return s
}

// Close releases this fit's shards on every live worker (best effort, so
// shared long-lived workers drop the datasets) and closes the connections.
func (c *Coordinator) Close() {
	c.mu.Lock()
	alive := append([]bool(nil), c.alive...)
	clients := append([]Client(nil), c.clients...)
	c.mu.Unlock()
	for i, cl := range clients {
		if alive[i] && len(c.spans) > 0 {
			_ = cl.Call("Worker.Release", ReleaseArgs{Fit: c.fit}, &Ack{})
		}
		_ = cl.Close()
	}
	c.pendMu.Lock()
	pending := c.pending
	c.pending = nil
	c.pendMu.Unlock()
	for _, cl := range pending {
		_ = cl.Close()
	}
}

// Distribute splits ds into one contiguous shard per worker (fewer when
// n < workers, matching mrkm's mapper clamp) and pushes every shard to its
// worker at once. The spans come from mrkm.MakeSpans — the same function the
// in-process realization partitions with — so per-shard partial sums line up
// with its mapper partials term for term.
//
// Each push encodes its shard twice, into the codec's float64 block and
// then into gob's message buffer, so while the pushes are in flight the
// coordinator holds about twice the dataset on top of ds, which it retains
// for failover re-pushes.
func (c *Coordinator) Distribute(ds *geom.Dataset) error {
	n := ds.N()
	if n == 0 {
		return errors.New("distkm: empty dataset")
	}
	c.ds = ds
	c.man, c.manPrefix = nil, ""
	c.n, c.dim, c.weighted = n, ds.Dim(), ds.Weight != nil
	c.spans = mrkm.MakeSpans(n, c.Workers())
	c.segs = nil
	return c.loadAll()
}

// DistributeManifest is the pull counterpart of Distribute: the dataset
// lives as .kmd part files that every worker can reach under its own
// -data-dir, and only file paths and row ranges cross the network. Shard
// spans still come from mrkm.MakeSpans over the manifest's total row count,
// so a pull fit is bit-identical to a push fit (and to mrkm) at the same
// worker count — the part-file boundaries never influence the math.
//
// Part paths go out exactly as the manifest records them (manifest-dir-
// relative), so each worker's -data-dir must be (a mirror of) the
// manifest's directory. When workers instead root a larger dataset tree,
// use DistributeManifestAt with the manifest's location inside that tree.
func (c *Coordinator) DistributeManifest(m *dsio.Manifest) error {
	return c.DistributeManifestAt(m, "")
}

// DistributeManifestAt is DistributeManifest with the manifest's directory
// expressed relative to the workers' -data-dir roots: every part path is
// prefixed with `prefix` before it crosses the wire. kmserved uses it so a
// fit over "big/manifest.json" under -data-dir sends "big/part-NNNN.kmd",
// which external workers rooted at the same tree resolve correctly.
func (c *Coordinator) DistributeManifestAt(m *dsio.Manifest, prefix string) error {
	if m.Rows == 0 {
		return errors.New("distkm: empty dataset")
	}
	if m.Weighted {
		// Step 1's weight-proportional first pick needs the global weight
		// vector, which a path-only coordinator never sees.
		return errors.New("distkm: manifest pull does not support weighted datasets")
	}
	c.ds = nil
	c.man, c.manPrefix = m, prefix
	c.n, c.dim, c.weighted = m.Rows, m.Cols, false
	c.reshard(c.Workers())
	return c.loadAll()
}

// manifestSegs maps global rows [lo, hi) onto the manifest's part files.
// Zero-row parts (legal in externally produced manifests) are skipped — a
// degenerate [0,0) segment would be rejected by the worker.
func manifestSegs(m *dsio.Manifest, prefix string, lo, hi int) []PathSeg {
	var segs []PathSeg
	at := 0
	for _, sh := range m.Shards {
		next := at + sh.Rows
		if sh.Rows > 0 && next > lo && at < hi {
			p := sh.Path
			if prefix != "" {
				p = path.Join(prefix, p)
			}
			segs = append(segs, PathSeg{
				Path: p,
				Lo:   max(lo, at) - at,
				Hi:   min(hi, next) - at,
			})
		}
		at = next
	}
	return segs
}

// reshard splits the retained pull-mode manifest into `shards` spans and
// recomputes each shard's file segments. Distribute uses it with the worker
// count; ResumeFit with the checkpoint's shard count, which may differ.
func (c *Coordinator) reshard(shards int) {
	spans := mrkm.MakeSpans(c.n, shards)
	c.segs = make([][]PathSeg, len(spans))
	for s, sp := range spans {
		c.segs[s] = manifestSegs(c.man, c.manPrefix, sp.Lo, sp.Hi)
	}
	c.spans = spans
}

// loadAll initializes the shard→worker assignment and loads every shard,
// all at once. Shards are dealt round-robin: normally one per worker,
// wrapping when a resume re-sharded to more spans than there are connected
// workers. It returns the first error in shard order. Unlike fanOut, a load
// is not an RPC round and admits no joiners; a worker that joins meanwhile
// is admitted, and steals shards, at the first fan-out.
func (c *Coordinator) loadAll() error {
	c.mu.Lock()
	c.assign = make([]int, len(c.spans))
	for i := range c.assign {
		c.assign[i] = i % len(c.clients)
	}
	c.mu.Unlock()
	for _, err := range c.eachShard(func(shardID int, cl Client) error {
		return c.loadShard(cl, shardID)
	}) {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadShard loads shard shardID onto cl: a path instruction in pull mode, a
// push of the retained dataset's span otherwise.
func (c *Coordinator) loadShard(cl Client, shardID int) error {
	sp := c.spans[shardID]
	if c.segs != nil {
		return cl.Call("Worker.LoadPath", LoadPathArgs{
			Ref:     c.ref(shardID),
			Lo:      sp.Lo,
			Segs:    c.segs[shardID],
			Float32: c.float32,
		}, &Ack{})
	}
	view := c.ds.X.RowRange(sp.Lo, sp.Hi)
	var w []float64
	if c.ds.Weight != nil {
		w = c.ds.Weight[sp.Lo:sp.Hi]
	}
	return cl.Call("Worker.Load", LoadArgs{
		Ref:     c.ref(shardID),
		Lo:      sp.Lo,
		Points:  matOf(view.Rows, view.Cols, view.Data),
		Weights: w,
		Float32: c.float32,
	}, &Ack{})
}

// withFailover runs call against the shard's current worker with bounded
// retries (callRetry), re-assigning the shard onto the least-loaded live
// worker (re-pushing its data and rebuilding its D² cache) once the retry
// budget is exhausted, then trying again there. Application-level errors
// from the worker (rpc.ServerError) are returned as-is: they are
// deterministic and neither retry nor re-assignment can fix them. Sampling
// is counter-based, so a retried call returns exactly what the first attempt
// would have.
func (c *Coordinator) withFailover(shardID int, call func(int, Client) error) error {
	var tried []int
	for {
		c.mu.Lock()
		w := c.assign[shardID]
		cl := c.clients[w]
		ok := c.alive[w]
		c.mu.Unlock()

		if ok {
			err := c.callRetry(shardID, cl, call)
			if err == nil {
				return nil
			}
			var appErr rpc.ServerError
			if errors.As(err, &appErr) {
				return fmt.Errorf("distkm: shard %d: %w", shardID, err)
			}
			c.mu.Lock()
			c.alive[w] = false
			c.mu.Unlock()
		}
		if len(tried) == 0 || tried[len(tried)-1] != w {
			tried = append(tried, w)
		}
		if err := c.reassign(shardID, tried); err != nil {
			return err
		}
	}
}

// badReply reports a shard reply that decoded but does not fit the call
// that asked for it. Each call decodes into a fresh reply and keeps it only
// once it fits, so nothing of a rejected reply survives into a retry. The
// error is a plain one, not an rpc.ServerError: withFailover retries the
// call and then fails the worker over, as it does a reply that does not
// decode.
func badReply(shardID int, method, format string, args ...any) error {
	return fmt.Errorf("distkm: shard %d: misshapen %s reply: %s", shardID, method, fmt.Sprintf(format, args...))
}

// callRetry attempts call up to the retry policy's budget against one
// worker, sleeping a jittered exponential backoff between attempts. A
// worker-side rpc.ServerError aborts immediately (retrying a deterministic
// error is pointless); only transport faults burn retry budget.
func (c *Coordinator) callRetry(shardID int, cl Client, call func(int, Client) error) error {
	attempts := c.retry.attempts()
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.retries.Add(1)
			time.Sleep(c.retry.backoff(a, c.jitter()))
		}
		c.calls.Add(1)
		err = call(shardID, cl)
		if err == nil {
			return nil
		}
		var appErr rpc.ServerError
		if errors.As(err, &appErr) {
			return err
		}
	}
	return err
}

// reassign moves shardID to the least-loaded live worker — original or
// joined mid-fit alike — re-pushes its data, and rebuilds its distance cache
// against the currently-broadcast center set.
func (c *Coordinator) reassign(shardID int, tried []int) error {
	c.mu.Lock()
	next := c.leastLoadedLocked()
	if next < 0 {
		c.mu.Unlock()
		return &NoWorkersError{Shard: shardID, Tried: append([]int(nil), tried...)}
	}
	c.assign[shardID] = next
	cl := c.clients[next]
	folded := c.folded.clone()
	c.mu.Unlock()

	if c.ds == nil && c.segs == nil {
		return errors.New("distkm: cannot re-assign a shard without the retained dataset")
	}
	c.failovers.Add(1)
	c.calls.Add(1)
	if err := c.loadShard(cl, shardID); err != nil {
		c.mu.Lock()
		c.alive[next] = false
		c.mu.Unlock()
		return nil // loop in withFailover picks the next survivor
	}
	if err := c.replay(cl, c.ref(shardID), folded); err != nil {
		c.mu.Lock()
		c.alive[next] = false
		c.mu.Unlock()
	}
	return nil
}

// cacheLog records how the shards' D² caches were built: Update group j
// folded centers[starts[j]:starts[j+1]], and the last group ends at rows.
// Replaying the groups in order rebuilds a cache bit-identically. One
// Update over all the rows would not: the distance kernel a group runs
// depends on how many centers arrive together.
type cacheLog struct {
	centers *geom.Matrix
	starts  []int
	rows    int
}

// validate checks a checkpointed log before it is replayed: the first group
// starts at row 0 and the starts never decrease or pass the last row.
func (l cacheLog) validate() error {
	if len(l.starts) == 0 || l.starts[0] != 0 {
		return errors.New("distkm: checkpoint has no Update groups starting at row 0")
	}
	for j := 1; j < len(l.starts); j++ {
		if l.starts[j] < l.starts[j-1] || l.starts[j] > l.rows {
			return fmt.Errorf("distkm: checkpoint Update group %d starts at row %d", j, l.starts[j])
		}
	}
	return nil
}

// clone copies the log so it can be replayed outside the coordinator lock.
func (l cacheLog) clone() cacheLog {
	l.starts = append([]int(nil), l.starts...)
	return l
}

// group returns the center rows of Update group j.
func (l cacheLog) group(j int) geom.Matrix {
	hi := l.rows
	if j+1 < len(l.starts) {
		hi = l.starts[j+1]
	}
	return l.centers.RowRange(l.starts[j], hi)
}

// replay rebuilds shard ref's D² cache on cl from the logged groups, in
// order, the first with Reset.
func (c *Coordinator) replay(cl Client, ref ShardRef, l cacheLog) error {
	for j := range l.starts {
		g := l.group(j)
		c.calls.Add(1)
		if err := cl.Call("Worker.Update", UpdateArgs{
			Ref: ref, New: matOf(g.Rows, g.Cols, g.Data), Reset: j == 0,
		}, &CostReply{}); err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs one barrier-synchronized pass: call for every shard
// concurrently, with per-shard retry and failover. It is the network
// analogue of one MapReduce job. Between fan-outs no shard RPC is in flight,
// which makes the top of this function the safe admission point for workers
// that joined since the last pass.
func (c *Coordinator) fanOut(call func(shardID int, cl Client) error) error {
	if len(c.spans) == 0 {
		return errors.New("distkm: no shards distributed; call Distribute first")
	}
	c.admitJoiners()
	c.rpcRounds.Add(1)
	return errors.Join(c.eachShard(call)...)
}

// eachShard runs call for every shard concurrently, each under
// withFailover, and returns the per-shard errors in shard order.
func (c *Coordinator) eachShard(call func(shardID int, cl Client) error) []error {
	errs := make([]error, len(c.spans))
	var wg sync.WaitGroup
	wg.Add(len(c.spans))
	for s := range c.spans {
		go func(s int) {
			defer wg.Done()
			errs[s] = c.withFailover(s, call)
		}(s)
	}
	wg.Wait()
	return errs
}

// snapshot copies the network counters accumulated since the given baseline
// into st.
func (c *Coordinator) snapshot(st *Stats, rounds0, calls0, fail0, retry0 int64) {
	st.RPCRounds = int(c.rpcRounds.Load() - rounds0)
	st.Calls = c.calls.Load() - calls0
	st.Failovers = int(c.failovers.Load() - fail0)
	st.Retries = c.retries.Load() - retry0
}

// initResume carries the state a PhaseInit checkpoint restored: the fit
// continues from completed round `round` with the driver RNG mid-stream.
type initResume struct {
	round    int
	centers  *geom.Matrix
	starts   []int // first candidate row of each Update group
	phi, psi float64
	phiTrace []float64
	r        *rng.Rng
}

// Init runs Algorithm 2 with every per-round primitive answered by the
// remote shards, following mrkm.Init step for step: one Update fan-out is
// one cost/cache job, one Sample fan-out is one sampling job, Step 7 is a
// Weights fan-out, and Step 8 (tiny) runs on the coordinator.
func (c *Coordinator) Init(cfg core.Config) (*geom.Matrix, Stats, error) {
	return c.initFrom(cfg, nil)
}

// initFrom is Init, optionally continuing from a checkpointed round instead
// of Step 1. Either way the result is bit-identical to an uninterrupted run:
// on resume the D² caches rebuild exactly from the checkpointed candidate
// set (min-folds are idempotent) and the driver RNG continues mid-stream.
func (c *Coordinator) initFrom(cfg core.Config, res *initResume) (*geom.Matrix, Stats, error) {
	stats := Stats{}
	if cfg.K <= 0 {
		return nil, stats, errors.New("distkm: Config.K must be positive")
	}
	if len(c.spans) == 0 {
		return nil, stats, errors.New("distkm: call Distribute before Init")
	}
	rounds0, calls0, fail0, retry0 := c.rpcRounds.Load(), c.calls.Load(), c.failovers.Load(), c.retries.Load()
	n := c.n
	ell, rounds := mrkm.Defaults(cfg)

	var r *rng.Rng
	var centers *geom.Matrix
	startRound := 0
	if res == nil {
		r = rng.New(cfg.Seed)
		// Step 1: the driver picks the first center uniformly (weight-
		// proportionally when weighted — push mode only, since a path-loaded
		// coordinator never holds the weight vector) and fetches it from the
		// owning shard.
		var first int
		if !c.weighted {
			first = r.Intn(n)
		} else {
			first = r.WeightedIndex(c.ds.Weight)
		}
		firstPoint, err := c.fetch(first)
		if err != nil {
			return nil, stats, err
		}
		centers = geom.NewMatrix(0, c.dim)
		centers.Cols = c.dim
		centers.AppendRow(firstPoint)
	} else {
		r = res.r
		centers = res.centers
		startRound = res.round
		stats.Psi = res.psi
		stats.PhiTrace = append(stats.PhiTrace, res.phiTrace...)
	}

	c.mu.Lock()
	c.folded = cacheLog{centers: centers}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.folded = cacheLog{}
		c.mu.Unlock()
	}()

	// fold broadcasts centers[lo:hi], folds them into every shard's D²
	// cache, logs the group for failover replay, and reduces the φ partials
	// in shard order.
	fold := func(lo, hi int) (float64, error) {
		view := centers.RowRange(lo, hi)
		args := matOf(view.Rows, view.Cols, view.Data)
		phis := make([]float64, len(c.spans))
		err := c.fanOut(func(s int, cl Client) error {
			var rep CostReply
			if err := cl.Call("Worker.Update", UpdateArgs{Ref: c.ref(s), New: args, Reset: lo == 0}, &rep); err != nil {
				return err
			}
			phis[s] = rep.Phi
			return nil
		})
		if err != nil {
			return 0, err
		}
		c.mu.Lock()
		c.folded.centers = centers
		c.folded.starts = append(c.folded.starts, lo)
		c.folded.rows = hi
		c.mu.Unlock()
		var phi float64
		for _, p := range phis {
			phi += p
		}
		return phi, nil
	}

	var phi float64
	var err error
	if res == nil {
		// Step 2: ψ.
		if phi, err = fold(0, 1); err != nil {
			return nil, stats, err
		}
		stats.Psi = phi
		stats.PhiTrace = append(stats.PhiTrace, phi)
		if err := c.saveInit(cfg, 0, centers, r, phi, stats.Psi, stats.PhiTrace); err != nil {
			return nil, stats, err
		}
	} else {
		// Rebuild every shard's D² cache by replaying the checkpointed
		// Update groups in order. The reduced φ must land bit-exactly on the
		// checkpointed value — anything else means the distributed dataset
		// is not the one the checkpoint was taken against.
		replayed := cacheLog{centers: centers, starts: res.starts, rows: centers.Rows}
		if err := replayed.validate(); err != nil {
			return nil, stats, err
		}
		for j := range replayed.starts {
			g := replayed.group(j)
			lo := replayed.starts[j]
			if phi, err = fold(lo, lo+g.Rows); err != nil {
				return nil, stats, err
			}
		}
		if math.Float64bits(phi) != math.Float64bits(res.phi) {
			return nil, stats, fmt.Errorf("distkm: checkpoint does not match the distributed dataset (phi %v, checkpointed %v)", phi, res.phi)
		}
	}

	// Steps 3–6: sample (needs last job's φ), then update+cost against the
	// new centers — two fan-outs per round, like the Hadoop driver.
	for round := startRound; round < rounds && phi > 0; round++ {
		from := centers.Rows
		replies := make([]SampleReply, len(c.spans))
		err := c.fanOut(func(s int, cl Client) error {
			var rep SampleReply
			err := cl.Call("Worker.Sample",
				SampleArgs{Ref: c.ref(s), Round: round, Phi: phi, Ell: ell, Seed: cfg.Seed}, &rep)
			if err != nil {
				return err
			}
			if pts, rows := rep.Points, c.spans[s].Hi-c.spans[s].Lo; pts.Cols != c.dim || pts.Rows > rows {
				return badReply(s, "Sample", "%d×%d points from a %d-row shard of dim %d", pts.Rows, pts.Cols, rows, c.dim)
			}
			replies[s] = rep
			return nil
		})
		if err != nil {
			return nil, stats, err
		}
		for s := range replies {
			pts := replies[s].Points.matrix()
			for i := 0; i < pts.Rows; i++ {
				centers.AppendRow(pts.Row(i))
			}
		}
		if phi, err = fold(from, centers.Rows); err != nil {
			return nil, stats, err
		}
		stats.PhiTrace = append(stats.PhiTrace, phi)
		if err := c.saveInit(cfg, round+1, centers, r, phi, stats.Psi, stats.PhiTrace); err != nil {
			return nil, stats, err
		}
	}
	stats.Candidates = centers.Rows

	// Step 7: weighting fan-out, reduced per candidate in shard order.
	weights, err := c.weightPass(centers)
	if err != nil {
		return nil, stats, err
	}

	// Step 8: sequential reclustering on the coordinator (the candidate set
	// is tiny). Same RNG stream position and inputs as mrkm ⇒ same centers.
	cds := mrkm.WeightedCandidates(centers, weights)
	final := seed.KMeansPP(cds, cfg.K, r, 1)

	stats.SeedCost, err = c.costPass(final)
	if err != nil {
		return nil, stats, err
	}
	c.snapshot(&stats, rounds0, calls0, fail0, retry0)
	return final, stats, nil
}

// fetch retrieves one point by global index from its owning shard.
func (c *Coordinator) fetch(index int) ([]float64, error) {
	shardID := -1
	for s, sp := range c.spans {
		if index >= sp.Lo && index < sp.Hi {
			shardID = s
			break
		}
	}
	if shardID < 0 {
		return nil, fmt.Errorf("distkm: no shard owns global index %d", index)
	}
	var point []float64
	err := c.withFailover(shardID, func(s int, cl Client) error {
		var rep FetchReply
		if err := cl.Call("Worker.Fetch", FetchArgs{Ref: c.ref(s), Index: index}, &rep); err != nil {
			return err
		}
		if len(rep.Point) != c.dim {
			return badReply(s, "Fetch", "a point of dim %d, want %d", len(rep.Point), c.dim)
		}
		point = rep.Point
		return nil
	})
	return point, err
}

// weightPass is Step 7: per-candidate weight partials reduced in shard order.
func (c *Coordinator) weightPass(centers *geom.Matrix) ([]float64, error) {
	args := matOf(centers.Rows, centers.Cols, centers.Data)
	replies := make([]WeightsReply, len(c.spans))
	err := c.fanOut(func(s int, cl Client) error {
		var rep WeightsReply
		if err := cl.Call("Worker.Weights", CentersArgs{Ref: c.ref(s), Centers: args}, &rep); err != nil {
			return err
		}
		if len(rep.W) != centers.Rows {
			return badReply(s, "Weights", "%d weights for %d candidates", len(rep.W), centers.Rows)
		}
		replies[s] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, centers.Rows)
	for s := range replies {
		for i, w := range replies[s].W {
			weights[i] += w
		}
	}
	return weights, nil
}

// costPass reduces φ_X(centers) over the shards in shard order.
func (c *Coordinator) costPass(centers *geom.Matrix) (float64, error) {
	args := matOf(centers.Rows, centers.Cols, centers.Data)
	phis := make([]float64, len(c.spans))
	err := c.fanOut(func(s int, cl Client) error {
		var rep CostReply
		if err := cl.Call("Worker.Cost", CentersArgs{Ref: c.ref(s), Centers: args}, &rep); err != nil {
			return err
		}
		phis[s] = rep.Phi
		return nil
	})
	var phi float64
	for _, p := range phis {
		phi += p
	}
	return phi, err
}

// Lloyd runs distributed Lloyd iterations: each iteration is one LloydStep
// fan-out whose per-shard (Σw·x, Σw) partials are reduced at the coordinator
// in shard order, then the updated centers are re-broadcast. Empty clusters
// keep their previous position, as in mrkm.Lloyd.
func (c *Coordinator) Lloyd(init *geom.Matrix, maxIter int) (lloyd.Result, Stats, error) {
	return c.lloydFrom(init, maxIter, 0, nil, nil)
}

// lloydFrom is Lloyd starting from completed iteration startIter with the
// given cost trace so far (both zero/nil for a fresh run). save, when
// non-nil, is called after each completed iteration with the iteration
// count, current centers, and cumulative trace — the checkpoint hook.
func (c *Coordinator) lloydFrom(cur *geom.Matrix, maxIter, startIter int, costTrace []float64, save func(iter int, centers *geom.Matrix, trace []float64) error) (lloyd.Result, Stats, error) {
	stats := Stats{}
	res := lloyd.Result{}
	if len(c.spans) == 0 {
		return res, stats, errors.New("distkm: call Distribute before Lloyd")
	}
	if maxIter <= 0 {
		maxIter = 20 // the paper bounds parallel Lloyd at 20 iterations (§4.2)
	}
	rounds0, calls0, fail0, retry0 := c.rpcRounds.Load(), c.calls.Load(), c.failovers.Load(), c.retries.Load()
	centers := cur.Clone()
	k, d := centers.Rows, centers.Cols
	res.Centers = centers
	res.Iters = startIter
	res.CostTrace = append(res.CostTrace, costTrace...)
	if len(res.CostTrace) > 0 {
		res.Cost = res.CostTrace[len(res.CostTrace)-1]
	}

	total := make([]float64, d+1)
	row := make([]float64, d)
	for it := startIter; it < maxIter; it++ {
		args := matOf(centers.Rows, centers.Cols, centers.Data)
		replies := make([]LloydReply, len(c.spans))
		err := c.fanOut(func(s int, cl Client) error {
			var rep LloydReply
			if err := cl.Call("Worker.LloydStep", CentersArgs{Ref: c.ref(s), Centers: args}, &rep); err != nil {
				return err
			}
			if sums := rep.Sums; sums.Rows != k || sums.Cols != d+1 {
				return badReply(s, "LloydStep", "%d×%d sums, want %d×%d", sums.Rows, sums.Cols, k, d+1)
			}
			replies[s] = rep
			return nil
		})
		if err != nil {
			return res, stats, err
		}

		var phi float64
		maxMove := 0.0
		for cIdx := 0; cIdx < k; cIdx++ {
			for j := range total {
				total[j] = 0
			}
			for s := range replies {
				part := replies[s].Sums.matrix().Row(cIdx)
				for j := range total {
					total[j] += part[j]
				}
			}
			if total[d] > 0 {
				for j := 0; j < d; j++ {
					row[j] = total[j] / total[d]
				}
				move := geom.SqDist(row, centers.Row(cIdx))
				if move > maxMove {
					maxMove = move
				}
				copy(centers.Row(cIdx), row)
			}
		}
		for s := range replies {
			phi += replies[s].Phi
		}
		res.Iters = it + 1
		res.Cost = phi
		res.CostTrace = append(res.CostTrace, phi)
		if save != nil {
			if err := save(it+1, centers, res.CostTrace); err != nil {
				return res, stats, err
			}
		}
		if maxMove == 0 {
			res.Converged = true
			break
		}
	}

	// Final pass: assignments and cost against the final centers, reduced in
	// shard order (mrkm uses an in-process lloyd.Assign here; the values
	// agree, the cost may differ in the last ulp from the different chunking).
	args := matOf(centers.Rows, centers.Cols, centers.Data)
	replies := make([]AssignReply, len(c.spans))
	err := c.fanOut(func(s int, cl Client) error {
		var rep AssignReply
		if err := cl.Call("Worker.Assign", CentersArgs{Ref: c.ref(s), Centers: args}, &rep); err != nil {
			return err
		}
		if rows := c.spans[s].Hi - c.spans[s].Lo; len(rep.Assign) != rows {
			return badReply(s, "Assign", "%d assignments for %d rows", len(rep.Assign), rows)
		}
		for i, a := range rep.Assign {
			if a < 0 || int(a) >= k {
				return badReply(s, "Assign", "row %d assigned to center %d of %d", i, a, k)
			}
		}
		replies[s] = rep
		return nil
	})
	if err != nil {
		return res, stats, err
	}
	res.Assign = res.Assign[:0]
	var phi float64
	for s := range replies {
		res.Assign = append(res.Assign, replies[s].Assign...)
		phi += replies[s].Phi
	}
	res.Cost = phi
	stats.SeedCost = phi
	c.snapshot(&stats, rounds0, calls0, fail0, retry0)
	return res, stats, nil
}

// runLloydPhase wraps lloydFrom with the checkpoint hook: an immediate
// checkpoint marking the init phase complete (so a crash inside the first
// iteration resumes as Lloyd, not by re-seeding), then one every EveryLloyd
// completed iterations.
func (c *Coordinator) runLloydPhase(cfg core.Config, seedC, cur *geom.Matrix, maxIter, startIter int, costTrace []float64, initStats Stats) (lloyd.Result, Stats, error) {
	if maxIter <= 0 {
		maxIter = 20
	}
	var save func(int, *geom.Matrix, []float64) error
	if c.ckpt != nil {
		if err := c.saveLloyd(cfg, maxIter, seedC, cur, startIter, costTrace, initStats); err != nil {
			return lloyd.Result{}, Stats{}, err
		}
		every := c.ckpt.every()
		save = func(iter int, centers *geom.Matrix, trace []float64) error {
			if iter%every != 0 && iter != maxIter {
				return nil
			}
			return c.saveLloyd(cfg, maxIter, seedC, centers, iter, trace, initStats)
		}
	}
	return c.lloydFrom(cur, maxIter, startIter, costTrace, save)
}

func mergeStats(initStats, lloydStats Stats) Stats {
	merged := initStats
	merged.RPCRounds += lloydStats.RPCRounds
	merged.Calls += lloydStats.Calls
	merged.Failovers += lloydStats.Failovers
	merged.Retries += lloydStats.Retries
	return merged
}

// Fit is the full pipeline: k-means|| seeding then Lloyd refinement, both
// distributed. The merged Stats sums the network counters of both phases.
func (c *Coordinator) Fit(cfg core.Config, maxIter int) (*geom.Matrix, lloyd.Result, Stats, error) {
	initCenters, initStats, err := c.Init(cfg)
	if err != nil {
		return nil, lloyd.Result{}, initStats, err
	}
	res, lloydStats, err := c.runLloydPhase(cfg, initCenters, initCenters, maxIter, 0, nil, initStats)
	return initCenters, res, mergeStats(initStats, lloydStats), err
}

// ResumeFit continues a fit from the checkpoint in the configured
// checkpointer's directory, bit-identically to the uninterrupted run: the
// checkpointed shard count is restored first (span boundaries, not worker
// count, enter the arithmetic), then the interrupted phase picks up from its
// last completed round or iteration. Stats count only the work done after
// the resume.
func (c *Coordinator) ResumeFit(cfg core.Config, maxIter int) (*geom.Matrix, lloyd.Result, Stats, error) {
	if c.ckpt == nil {
		return nil, lloyd.Result{}, Stats{}, errors.New("distkm: ResumeFit requires SetCheckpointer")
	}
	if len(c.spans) == 0 {
		return nil, lloyd.Result{}, Stats{}, errors.New("distkm: call Distribute before ResumeFit")
	}
	cp, centers, seedC, err := LoadCheckpoint(c.ckpt.Dir)
	if err != nil {
		return nil, lloyd.Result{}, Stats{}, err
	}
	if err := cp.validate(cfg, maxIter, c.n, c.dim); err != nil {
		return nil, lloyd.Result{}, Stats{}, err
	}
	if cp.Shards != len(c.spans) {
		if err := c.redistribute(cp.Shards); err != nil {
			return nil, lloyd.Result{}, Stats{}, err
		}
	}
	switch cp.Phase {
	case PhaseInit:
		initCenters, initStats, err := c.initFrom(cfg, &initResume{
			round:    cp.Round,
			centers:  centers,
			starts:   cp.RoundStarts,
			phi:      cp.Phi,
			psi:      cp.Psi,
			phiTrace: cp.PhiTrace,
			r:        rng.FromState(cp.Rng),
		})
		if err != nil {
			return nil, lloyd.Result{}, initStats, err
		}
		res, lloydStats, err := c.runLloydPhase(cfg, initCenters, initCenters, maxIter, 0, nil, initStats)
		return initCenters, res, mergeStats(initStats, lloydStats), err
	default: // PhaseLloyd; LoadCheckpoint rejected anything else
		initStats := Stats{
			Candidates: cp.Candidates,
			Psi:        cp.Psi,
			PhiTrace:   append([]float64(nil), cp.PhiTrace...),
			SeedCost:   cp.SeedCost,
		}
		if seedC == nil {
			seedC = centers // pre-first-iteration checkpoint: centers are the seeds
		}
		res, lloydStats, err := c.runLloydPhase(cfg, seedC, centers, maxIter, cp.Iter, cp.CostTrace, initStats)
		return seedC, res, mergeStats(initStats, lloydStats), err
	}
}

// redistribute re-shards the retained dataset into the given span count and
// reloads every shard over the connected workers — ResumeFit's path to the
// checkpoint's shard geometry when the worker set changed across the crash.
func (c *Coordinator) redistribute(shards int) error {
	switch {
	case c.man != nil:
		c.reshard(shards)
	case c.ds != nil:
		c.spans = mrkm.MakeSpans(c.n, shards)
		c.segs = nil
	default:
		return errors.New("distkm: cannot re-shard without the retained dataset")
	}
	return c.loadAll()
}
