package distkm

import (
	"errors"
	"fmt"
	"math"
	"net/rpc"
	"path"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
)

// Stats describes a distributed run: the driver's statistics (Init only)
// plus the network's.
type Stats struct {
	core.Stats
	// RPCRounds counts barrier-synchronized fan-outs, one per pass: fold,
	// sampling, weighting, cost, Lloyd iteration, empty-cluster reseed and
	// final assignment.
	RPCRounds int
	// Calls counts individual shard RPCs issued, including failover retries.
	Calls int64
	// Failovers counts shard re-assignments after a worker failure.
	Failovers int
	// Retries counts shard RPC attempts repeated after a transient fault —
	// faults absorbed by backoff without costing a failover.
	Retries int64
}

// Coordinator drives k-means|| rounds and Lloyd iterations over remote shard
// workers. It holds no point data on the hot path — only the (small) center
// set crosses the network each round, exactly the property that lets the
// paper's algorithm run on a share-nothing cluster — but it retains the
// dataset it distributed so it can re-push a shard when a worker dies.
//
// All floating-point reductions run in fixed shard order, so for W workers
// the results are bit-identical to core.Init and lloyd.Run at Parallelism W
// (which reduce in chunk order over the same spans), regardless of which
// physical worker computed which partial and of any mid-run failovers.
type Coordinator struct {
	fit     uint64 // unique id namespacing this coordinator's shards on shared workers
	clients []Client
	ds      *geom.Dataset // push mode only; nil when shards were loaded by path
	spans   []Span

	// Dataset metadata shared by both load modes. In push mode it mirrors
	// ds; in pull (manifest) mode it is all the coordinator ever holds — the
	// points live exclusively on the workers.
	n, dim int
	// segs, in pull mode, maps each shard to the file row ranges that
	// compose it, so failover can re-issue the LoadPath instead of re-pushing
	// data the coordinator never had.
	segs [][]PathSeg

	// man/manPrefix are retained in pull mode so a resume can re-shard the
	// manifest to the checkpoint's span count (segs depend on the spans).
	man       *dsio.Manifest
	manPrefix string

	// float32 selects the float32 shard form: workers store narrowed points
	// and answer every distance pass over them, making the fit bit-identical
	// to core.Init + lloyd.Run over float32 points at Parallelism = Workers.
	// Set by SetFloat32 before Distribute.
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
// float32 code as an in-process chunk, so the fit is bit-identical to the
// in-process float32 realization at Mappers = Workers (all workers must
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

// Span is one shard: points [Lo, Hi) of the dataset.
type Span struct{ Lo, Hi int }

// MakeSpans splits n points into min(shards, n) contiguous spans (shards <
// 1 means all CPUs): the chunks geom.ParallelFor(n, shards) runs, so each
// shard's partial sums line up with an in-process chunk's term for term —
// the foundation of the bit-identical-parity guarantee.
func MakeSpans(n, shards int) []Span {
	m := min(geom.Workers(shards), n)
	if m < 1 {
		m = 1
	}
	out := make([]Span, m)
	for i := 0; i < m; i++ {
		out[i] = Span{Lo: i * n / m, Hi: (i + 1) * n / m}
	}
	return out
}

// Distribute splits ds into one contiguous shard per worker (fewer when
// n < workers) with MakeSpans and pushes every shard to its worker at once.
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
	c.n, c.dim = n, ds.Dim()
	c.spans = MakeSpans(n, c.Workers())
	c.segs = nil
	return c.loadAll()
}

// DistributeManifest is the pull counterpart of Distribute: the dataset
// lives as .kmd part files that every worker can reach under its own
// -data-dir, and only file paths and row ranges cross the network. Shard
// spans still come from MakeSpans over the manifest's total row count, so a
// pull fit is bit-identical to a push fit (and to an in-process fit) at the
// same worker count — the part-file boundaries never influence the math.
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
	c.n, c.dim = m.Rows, m.Cols
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
	spans := MakeSpans(c.n, shards)
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
// that asked for it, by its shape or by its values. Each call decodes into a
// fresh reply and keeps it only once it fits, so nothing of a rejected reply
// survives into a retry. The error is a plain one, not an rpc.ServerError:
// withFailover retries the call and then fails the worker over, as it does a
// reply that does not decode.
func badReply(shardID int, method, format string, args ...any) error {
	return fmt.Errorf("distkm: shard %d: bad %s reply: %s", shardID, method, fmt.Sprintf(format, args...))
}

// badSum reports a value no sum of non-negative terms (a φ partial, a
// weight) can take: NaN or negative. +Inf is legal, because finite data can
// overflow in process too.
func badSum(v float64) bool { return !(v >= 0) }

// checkPhi rejects a reply's φ partial if badSum.
func checkPhi(shardID int, method string, phi float64) error {
	if badSum(phi) {
		return badReply(shardID, method, "φ partial %v", phi)
	}
	return nil
}

// checkPoints rejects points with a NaN or infinite coordinate, which no
// worker holds: every point was checked finite before it was installed.
func checkPoints(shardID int, method string, xs []float64) error {
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badReply(shardID, method, "coordinate %v at flat index %d", v, i)
		}
	}
	return nil
}

// phiOnly is fanOut's check for a reply that is only a φ partial.
func phiOnly(method string) func(int, *CostReply) error {
	return func(s int, rep *CostReply) error { return checkPhi(s, method, rep.Phi) }
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
// by replaying the logged fold groups.
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
// Replaying the groups in order rebuilds a cache and its nearest rows
// bit-identically. One Update over all the rows would not: the distance
// kernel a group runs depends on how many centers arrive together.
type cacheLog struct {
	centers *geom.Matrix
	starts  []int
	rows    int
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

// replay rebuilds shard ref's D² cache and its nearest rows on cl from the
// logged groups, in order; the first starts at row 0 and so resets the
// cache.
func (c *Coordinator) replay(cl Client, ref ShardRef, l cacheLog) error {
	for j, first := range l.starts {
		g := l.group(j)
		c.calls.Add(1)
		if err := cl.Call("Worker.Update", UpdateArgs{
			Ref: ref, New: matOf(g.Rows, g.Cols, g.Data), First: first,
		}, &CostReply{}); err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs one barrier-synchronized pass: method for every shard
// concurrently, with per-shard retry and failover. It is the network
// analogue of one MapReduce job. Shard s sends args(its ref) and decodes
// into a fresh reply, which is kept once check (when non-nil) accepts it; a
// reply that does not fit is the sending worker's fault, retried and failed
// over like a transport error. The replies come back in shard order. Between
// fan-outs no shard RPC is in flight, which makes the top of this function
// the safe admission point for workers that joined since the last pass.
func fanOut[R any](c *Coordinator, method string, args func(ShardRef) any, check func(s int, rep *R) error) ([]R, error) {
	if len(c.spans) == 0 {
		return nil, errors.New("distkm: no shards distributed; call Distribute first")
	}
	c.admitJoiners()
	c.rpcRounds.Add(1)
	replies := make([]R, len(c.spans))
	errs := c.eachShard(func(s int, cl Client) error {
		var rep R
		if err := cl.Call(method, args(c.ref(s)), &rep); err != nil {
			return err
		}
		if check != nil {
			if err := check(s, &rep); err != nil {
				return err
			}
		}
		replies[s] = rep
		return nil
	})
	return replies, errors.Join(errs...)
}

// centersArgs broadcasts centers to every shard.
func centersArgs(centers *geom.Matrix) func(ShardRef) any {
	m := matOf(centers.Rows, centers.Cols, centers.Data)
	return func(ref ShardRef) any { return CentersArgs{Ref: ref, Centers: m} }
}

// sumPhi reduces the replies' φ partials in shard order.
func sumPhi(replies []CostReply) float64 {
	var phi float64
	for _, rep := range replies {
		phi += rep.Phi
	}
	return phi
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

// bernoulliOnly rejects what only an in-process fit can run: ExactL draws
// from the whole D² cache at once, which no shard holds.
func bernoulliOnly(cfg core.Config) error {
	if cfg.Mode != core.Bernoulli {
		return fmt.Errorf("distkm: %v sampling needs the whole D² cache in one place", cfg.Mode)
	}
	return nil
}

// Init runs Algorithm 2 (core.Drive) with every pass answered by the remote
// shards: a fold is an Update fan-out, a sampling round a Sample fan-out,
// Step 7 a Weights fan-out and the seed cost a Cost fan-out; Step 8 (tiny)
// runs on the coordinator. It rejects ExactL sampling before any pass.
func (c *Coordinator) Init(cfg core.Config) (*geom.Matrix, Stats, error) {
	return c.seed(cfg, nil)
}

// seed is Init, continuing from a checkpointed round when from is non-nil.
// With a checkpointer set, it checkpoints after Step 2 and after every
// round.
func (c *Coordinator) seed(cfg core.Config, from *core.Round) (*geom.Matrix, Stats, error) {
	var stats Stats
	if err := bernoulliOnly(cfg); err != nil {
		return nil, stats, err
	}
	if len(c.spans) == 0 {
		return nil, stats, errors.New("distkm: call Distribute before Init")
	}
	rounds0, calls0, fail0, retry0 := c.rpcRounds.Load(), c.calls.Load(), c.failovers.Load(), c.retries.Load()
	defer func() {
		c.mu.Lock()
		c.folded = cacheLog{}
		c.mu.Unlock()
	}()
	// Step 1's weight-proportional draw needs the weight vector, which only
	// a push-mode coordinator holds; pull mode rejects weighted manifests.
	var weight []float64
	if c.ds != nil {
		weight = c.ds.Weight
	}
	var after func(*core.Round) error
	if c.ckpt != nil {
		after = func(st *core.Round) error { return c.saveInit(cfg, st) }
	}
	ell, _ := cfg.Schedule()
	centers, cs, err := core.Drive(passes{c, ell, cfg.Seed}, cfg, c.n, weight, from, after)
	stats.Stats = cs
	c.snapshot(&stats, rounds0, calls0, fail0, retry0)
	return centers, stats, err
}

// Lloyd runs distributed Lloyd iterations (lloyd.Drive): each iteration is
// one LloydStep fan-out whose per-shard (Σw·x, Σw) partials are reduced at
// the coordinator in shard order, an empty cluster is reseeded by a
// Farthest fan-out, and a final Assign fan-out reports the returned
// centers' assignment and cost. maxIter ≤ 0 means lloyd.DefaultMaxIter.
func (c *Coordinator) Lloyd(init *geom.Matrix, maxIter int) (lloyd.Result, Stats, error) {
	return c.lloyd(lloyd.Result{Centers: init}, maxIter, nil)
}

// lloyd is Lloyd continuing from a checkpointed iteration (from.Iters,
// from.CostTrace and from.Converged; all zero for a fresh run), calling
// after after every iteration.
func (c *Coordinator) lloyd(from lloyd.Result, maxIter int, after func(lloyd.Result) error) (lloyd.Result, Stats, error) {
	var stats Stats
	rounds0, calls0, fail0, retry0 := c.rpcRounds.Load(), c.calls.Load(), c.failovers.Load(), c.retries.Load()
	res, err := lloyd.Drive(passes{c: c}, from, maxIter, after)
	c.snapshot(&stats, rounds0, calls0, fail0, retry0)
	return res, stats, err
}

// runLloydPhase runs Lloyd with the checkpoint hook: an immediate
// checkpoint marking the init phase complete (so a crash inside the first
// iteration resumes as Lloyd, not by re-seeding), then one every EveryLloyd
// completed iterations and one after the last. It returns the fit's Stats:
// initStats with the Lloyd phase's network counters added.
func (c *Coordinator) runLloydPhase(cfg core.Config, seedC *geom.Matrix, from lloyd.Result, maxIter int, initStats Stats) (lloyd.Result, Stats, error) {
	maxIter = lloyd.MaxIter(maxIter)
	var after func(lloyd.Result) error
	if c.ckpt != nil {
		if err := c.saveLloyd(cfg, maxIter, seedC, from, initStats); err != nil {
			return lloyd.Result{}, initStats, err
		}
		every := c.ckpt.every()
		after = func(res lloyd.Result) error {
			if res.Iters%every != 0 && res.Iters != maxIter {
				return nil
			}
			return c.saveLloyd(cfg, maxIter, seedC, res, initStats)
		}
	}
	res, lloydStats, err := c.lloyd(from, maxIter, after)
	fit := initStats
	fit.RPCRounds += lloydStats.RPCRounds
	fit.Calls += lloydStats.Calls
	fit.Failovers += lloydStats.Failovers
	fit.Retries += lloydStats.Retries
	return res, fit, err
}

// Fit is the full pipeline: k-means|| seeding then Lloyd refinement, both
// distributed. The Stats sum the network counters of both phases.
func (c *Coordinator) Fit(cfg core.Config, maxIter int) (*geom.Matrix, lloyd.Result, Stats, error) {
	initCenters, initStats, err := c.Init(cfg)
	if err != nil {
		return nil, lloyd.Result{}, initStats, err
	}
	res, stats, err := c.runLloydPhase(cfg, initCenters, lloyd.Result{Centers: initCenters}, maxIter, initStats)
	return initCenters, res, stats, err
}

// ResumeFit continues a fit from the checkpoint in the configured
// checkpointer's directory, bit-identically to the uninterrupted run: the
// checkpointed shard count is restored first (span boundaries, not worker
// count, enter the arithmetic), then the interrupted phase picks up from its
// last completed round or iteration. An init-phase resume hands the round
// state to core.Drive, which replays the logged fold groups and checks φ bit
// for bit. Stats count only the work done after the resume.
func (c *Coordinator) ResumeFit(cfg core.Config, maxIter int) (*geom.Matrix, lloyd.Result, Stats, error) {
	if err := bernoulliOnly(cfg); err != nil {
		return nil, lloyd.Result{}, Stats{}, err
	}
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
	// A Lloyd-phase checkpoint continues from its iteration; an init-phase
	// one seeds first, from its round.
	from := lloyd.Result{Centers: centers, Iters: cp.Iter, CostTrace: cp.CostTrace, Converged: cp.Converged}
	initStats := Stats{Stats: core.Stats{
		Candidates: cp.Candidates,
		Psi:        cp.Psi,
		PhiTrace:   append([]float64(nil), cp.PhiTrace...),
		SeedCost:   cp.SeedCost,
	}}
	if cp.Phase == PhaseInit {
		seedC, initStats, err = c.seed(cfg, &core.Round{
			Round:    cp.Round,
			Cands:    centers,
			Starts:   cp.RoundStarts,
			Phi:      cp.Phi,
			Psi:      cp.Psi,
			PhiTrace: cp.PhiTrace,
			Rng:      rng.FromState(cp.Rng),
		})
		if err != nil {
			return nil, lloyd.Result{}, initStats, err
		}
		from = lloyd.Result{Centers: seedC}
	} else if seedC == nil {
		seedC = centers // pre-first-iteration checkpoint: centers are the seeds
	}
	res, stats, err := c.runLloydPhase(cfg, seedC, from, maxIter, initStats)
	return seedC, res, stats, err
}

// redistribute re-shards the retained dataset into the given span count and
// reloads every shard over the connected workers — ResumeFit's path to the
// checkpoint's shard geometry when the worker set changed across the crash.
func (c *Coordinator) redistribute(shards int) error {
	switch {
	case c.man != nil:
		c.reshard(shards)
	case c.ds != nil:
		c.spans = MakeSpans(c.n, shards)
		c.segs = nil
	default:
		return errors.New("distkm: cannot re-shard without the retained dataset")
	}
	return c.loadAll()
}

// passes is the networked backend of core.Passes and lloyd.Passes: every
// pass is one fan-out over the shards, with per-shard retry and failover,
// and the replies are reduced in shard order. ell and seed are Init's
// sampling parameters.
type passes struct {
	c    *Coordinator
	ell  float64
	seed uint64
}

// Point fetches one point by global index from its owning shard.
func (p passes) Point(index int) ([]float64, error) {
	c := p.c
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
		if err := checkPoints(s, "Fetch", rep.Point); err != nil {
			return err
		}
		point = rep.Point
		return nil
	})
	return point, err
}

// Fold broadcasts cands[lo:hi], folds it into every shard's D² cache and
// nearest rows (the first fold, lo = 0, resets the caches), and logs the
// group for failover replay.
func (p passes) Fold(cands *geom.Matrix, lo, hi int) (float64, error) {
	c := p.c
	view := cands.RowRange(lo, hi)
	group := matOf(view.Rows, view.Cols, view.Data)
	replies, err := fanOut(c, "Worker.Update", func(ref ShardRef) any {
		return UpdateArgs{Ref: ref, New: group, First: lo}
	}, phiOnly("Update"))
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.folded.centers = cands
	c.folded.starts = append(c.folded.starts, lo)
	c.folded.rows = hi
	c.mu.Unlock()
	return sumPhi(replies), nil
}

func (p passes) Sample(round int, phi float64, _ *rng.Rng) (*geom.Matrix, error) {
	c := p.c
	replies, err := fanOut(c, "Worker.Sample", func(ref ShardRef) any {
		return SampleArgs{Ref: ref, Round: round, Phi: phi, Ell: p.ell, Seed: p.seed}
	}, func(s int, rep *SampleReply) error {
		if pts, rows := rep.Points, c.spans[s].Hi-c.spans[s].Lo; pts.Cols != c.dim || pts.Rows > rows {
			return badReply(s, "Sample", "%d×%d points from a %d-row shard of dim %d", pts.Rows, pts.Cols, rows, c.dim)
		}
		return checkPoints(s, "Sample", rep.Points.Data)
	})
	if err != nil {
		return nil, err
	}
	picks := &geom.Matrix{Cols: c.dim}
	for _, rep := range replies {
		picks.Rows += rep.Points.Rows
		picks.Data = append(picks.Data, rep.Points.Data...)
	}
	return picks, nil
}

// Weights asks every shard for its Step 7 partial over the folded
// candidates; only the count crosses the wire.
func (p passes) Weights(candidates int) ([]float64, error) {
	replies, err := fanOut(p.c, "Worker.Weights", func(ref ShardRef) any {
		return WeightsArgs{Ref: ref, Candidates: candidates}
	}, func(s int, rep *WeightsReply) error {
		if len(rep.W) != candidates {
			return badReply(s, "Weights", "%d weights for %d candidates", len(rep.W), candidates)
		}
		if i := slices.IndexFunc(rep.W, badSum); i >= 0 {
			return badReply(s, "Weights", "candidate %d has weight %v", i, rep.W[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, candidates)
	for _, rep := range replies {
		geom.AddScaled(weights, 1, rep.W)
	}
	return weights, nil
}

func (p passes) Cost(centers *geom.Matrix) (float64, error) {
	replies, err := fanOut(p.c, "Worker.Cost", centersArgs(centers), phiOnly("Cost"))
	return sumPhi(replies), err
}

func (p passes) Step(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	k, d := centers.Rows, centers.Cols
	replies, err := fanOut(p.c, "Worker.LloydStep", centersArgs(centers), func(s int, rep *LloydReply) error {
		if sums := rep.Sums; sums.Rows != k || sums.Cols != d+1 {
			return badReply(s, "LloydStep", "%d×%d sums, want %d×%d", sums.Rows, sums.Cols, k, d+1)
		}
		for i := 0; i < k; i++ {
			row := rep.Sums.Data[i*(d+1) : (i+1)*(d+1)]
			if slices.ContainsFunc(row[:d], math.IsNaN) {
				return badReply(s, "LloydStep", "NaN in the sums of center %d", i)
			}
			if badSum(row[d]) {
				return badReply(s, "LloydStep", "center %d has weight %v", i, row[d])
			}
		}
		return checkPhi(s, "LloydStep", rep.Phi)
	})
	if err != nil {
		return nil, 0, err
	}
	sums := geom.NewMatrix(k, d+1)
	var phi float64
	for _, rep := range replies {
		geom.AddScaled(sums.Data, 1, rep.Sums.Data)
		phi += rep.Phi
	}
	return sums, phi, nil
}

// Farthest takes each shard's costliest point and keeps the costliest, the
// first shard's on ties (shards ascend, so that is the lowest index), then
// fetches its row from the shard that owns it.
func (p passes) Farthest(centers *geom.Matrix) ([]float64, error) {
	c := p.c
	replies, err := fanOut(c, "Worker.Farthest", centersArgs(centers), func(s int, rep *FarthestReply) error {
		if sp := c.spans[s]; rep.Index < sp.Lo || rep.Index >= sp.Hi {
			return badReply(s, "Farthest", "index %d outside the shard's rows [%d, %d)", rep.Index, sp.Lo, sp.Hi)
		}
		if badSum(rep.Cost) {
			return badReply(s, "Farthest", "cost %v", rep.Cost)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := replies[0]
	for _, rep := range replies[1:] {
		if rep.Cost > best.Cost {
			best = rep
		}
	}
	return p.Point(best.Index)
}

func (p passes) Assign(centers *geom.Matrix) ([]int32, float64, error) {
	c, k := p.c, centers.Rows
	replies, err := fanOut(c, "Worker.Assign", centersArgs(centers), func(s int, rep *AssignReply) error {
		if rows := c.spans[s].Hi - c.spans[s].Lo; len(rep.Assign) != rows {
			return badReply(s, "Assign", "%d assignments for %d rows", len(rep.Assign), rows)
		}
		for i, a := range rep.Assign {
			if a < 0 || int(a) >= k {
				return badReply(s, "Assign", "row %d assigned to center %d of %d", i, a, k)
			}
		}
		return checkPhi(s, "Assign", rep.Phi)
	})
	if err != nil {
		return nil, 0, err
	}
	assign := make([]int32, 0, c.n)
	var phi float64
	for _, rep := range replies {
		assign = append(assign, rep.Assign...)
		phi += rep.Phi
	}
	return assign, phi, nil
}
