// Package distkm runs k-means|| fitting on a real cluster of share-nothing
// shard workers, the deployment the paper designs for: O(log n) sampling
// rounds is exactly what makes the algorithm practical when every round is a
// network round-trip instead of an in-process pass.
//
// The package splits the mrkm dataflow across processes:
//
//   - a Worker owns one or more data shards (contiguous global index spans)
//     and answers the three per-round primitives of Algorithm 2 — D² cache
//     update + cost partial, threshold-sample candidates, and per-candidate
//     weight counts — plus per-shard Lloyd partial sums;
//   - the Coordinator drives the rounds, broadcasts new centers, reduces the
//     per-shard partials in fixed shard order, and runs Step 8 (the tiny
//     sequential reclustering) locally, exactly like mrkm's driver.
//
// Because the sampling randomness is the counter-based rng.PointRand and all
// floating-point reductions happen in shard order with the same inner loops
// as mrkm, a distkm fit over W workers is bit-identical to
// mrkm.Init + mrkm.Lloyd with Mappers: W in one process (gob encodes float64
// exactly). Tests assert this over the in-memory loopback transport and over
// real worker processes. The same holds for float32 fits: shards loaded with
// Float32 answer every distance pass through mrkm's shared span bodies, so
// a float32 distkm fit is bit-identical to mrkm.Init + mrkm.Lloyd over float32 points with
// Mappers: W — provided every worker resolves the same float32 kernel tier
// (geom.ActiveF32Tier; mixed AVX2/NEON/pure-Go fleets round differently).
//
// Transport is net/rpc over gob: Dial connects to a cmd/kmworker process over
// TCP, NewLoopback serves a Worker over an in-memory pipe through the same
// RPC stack. Worker failure is handled by the coordinator: the dead worker's
// shards are re-pushed to a surviving worker, the D² cache is rebuilt by
// replaying the Update groups folded so far in order (bit-exact: each group
// runs the same kernel it ran the first time), and the failed call is
// retried — deterministic sampling makes the retry safe.
package distkm

// Mat is the gob wire form of a dense row-major matrix (geom.Matrix without
// methods). gob round-trips float64 bits exactly, so broadcasting centers and
// returning partial sums loses nothing.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// ShardRef names one shard of one coordinator's fit. Fit is a unique id the
// coordinator draws at construction, so several coordinators (e.g. two
// concurrent kmserved dist jobs) can share the same worker processes without
// colliding on shard numbers.
type ShardRef struct {
	Fit   uint64
	Shard int
}

// LoadArgs pushes one shard of the dataset onto a worker. Lo is the global
// index of the shard's first point; sampling uses it so candidate selection
// matches the single-process run point for point. Float32 asks the worker to
// store the shard narrowed to float32 and answer every distance pass with the
// float32 span bodies (mrkm's span functions) — the wire format stays
// float64 (gob-exact), so a float32 fit over W workers is bit-identical to
// mrkm.Init + mrkm.Lloyd over float32 points with Mappers: W.
type LoadArgs struct {
	Ref     ShardRef
	Lo      int
	Points  Mat
	Weights []float64 // nil ⇒ unweighted
	Float32 bool
}

// Ack is the empty reply for calls that only need an error channel.
type Ack struct{}

// PathSeg names one contiguous row range of one .kmd part file. Paths are
// relative (manifest-relative); each worker resolves them under its own
// -data-dir, so the coordinator never needs to know where workers keep data.
type PathSeg struct {
	Path   string
	Lo, Hi int // row range within that file
}

// LoadPathArgs is the pull counterpart of LoadArgs: instead of shipping the
// shard's points over the wire, the coordinator names which rows of which
// dataset files make up the shard and the worker mmaps them locally — the
// request is a few hundred bytes regardless of shard size. Lo is the global
// index of the shard's first point, exactly as in LoadArgs. Float32 selects
// the float32 shard form, as in LoadArgs; a single-segment float32 .kmd file
// stays zero-copy (the worker scans the mapped pages directly), while float64
// files are narrowed into a private copy.
type LoadPathArgs struct {
	Ref     ShardRef
	Lo      int
	Segs    []PathSeg
	Float32 bool
}

// UpdateArgs is one D² cache-update pass: fold the new centers into the
// shard's per-point cache and return the shard's φ partial. Reset
// reinitializes the cache to +Inf first (first pass, or a failover rebuild
// with the full center set).
type UpdateArgs struct {
	Ref   ShardRef
	New   Mat // centers added since the previous update (all centers if Reset)
	Reset bool
}

// CostReply carries one shard's φ partial.
type CostReply struct {
	Phi float64
}

// SampleArgs is one Bernoulli sampling pass over the shard's cached D²
// weights (Algorithm 2, Step 4). Phi is the global φ the previous update
// reduced; Seed/Round key the counter-based per-point randomness.
type SampleArgs struct {
	Ref   ShardRef
	Round int
	Phi   float64
	Ell   float64
	Seed  uint64
}

// SampleReply returns the shard's selected candidates: their global indices
// (ascending) and the point rows in the same order.
type SampleReply struct {
	Indices []int
	Points  Mat
}

// CentersArgs broadcasts a full center set for the stateless passes
// (weights, Lloyd partials, cost, assignment).
type CentersArgs struct {
	Ref     ShardRef
	Centers Mat
}

// WeightsReply is the shard's Step 7 partial: per-candidate weight sums.
type WeightsReply struct {
	W []float64
}

// LloydReply is one shard's Lloyd partial: per-center Σw·x ⧺ Σw rows
// (k × (d+1), zero rows for centers the shard never assigned to) plus the
// shard's assignment-cost partial.
type LloydReply struct {
	Sums Mat
	Phi  float64
}

// AssignReply is the shard's final assignment: nearest-center index per
// point (shard-local order) and the shard's cost partial.
type AssignReply struct {
	Assign []int32
	Phi    float64
}

// FetchArgs asks the worker owning global point index Index for its row
// (the coordinator's Step 1 uses it for the first center).
type FetchArgs struct {
	Ref   ShardRef
	Index int // global index
}

// ReleaseArgs drops every shard of one fit from the worker, so long-lived
// workers shared by many coordinators do not accumulate dead datasets.
type ReleaseArgs struct {
	Fit uint64
}

// DropArgs drops a single shard from a worker — issued to the donor after a
// rebalancing steal moved the shard to a newly joined worker.
type DropArgs struct {
	Ref ShardRef
}

// FetchReply carries one point row.
type FetchReply struct {
	Point []float64
}

// StatusReply describes a worker for health checks and the kmcoord banner.
type StatusReply struct {
	Shards int
	Points int
}

func matOf(rows, cols int, data []float64) Mat { return Mat{Rows: rows, Cols: cols, Data: data} }
