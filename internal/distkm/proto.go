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
// mrkm.Init + mrkm.Lloyd with Mappers: W in one process (every float64
// crosses the wire as its exact IEEE-754 bits). Tests assert this over the
// in-memory loopback transport and over real worker processes. The same
// holds for float32 fits: shards loaded with Float32 answer every distance
// pass through mrkm's shared span bodies, so a float32 distkm fit is
// bit-identical to mrkm.Init + mrkm.Lloyd over float32 points with
// Mappers: W — provided every worker resolves the same float32 kernel tier
// (geom.ActiveF32Tier; mixed AVX2/NEON/pure-Go fleets round differently).
//
// Transport is net/rpc over gob: Dial connects to a cmd/kmworker process over
// TCP, NewLoopback serves a Worker over an in-memory pipe through the same
// RPC stack. gob frames each message, but every float64 payload (a Mat or a
// Floats) crosses as one block of little-endian IEEE-754 bits instead of
// gob's per-value encoding. The coordinator and its workers must be the
// same build: across builds the first call fails with a gob type error,
// never with wrong numbers.
//
// Worker failure is handled by the coordinator: the dead worker's shards
// are re-pushed to a surviving worker, the D² cache is rebuilt by replaying
// the Update groups folded so far in order (bit-exact: each group runs the
// same kernel it ran the first time), and the failed call is retried —
// deterministic sampling makes the retry safe.
package distkm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Mat is the wire form of a dense row-major matrix (geom.Matrix without
// methods): shard points, broadcast centers, sampled rows and Lloyd sums.
// It crosses as Rows and Cols (varints) followed by Data as one block of
// little-endian IEEE-754 bits, so every value — NaN payloads, −0 and ±Inf
// included — arrives with the bits it left with. Decoding rejects a shape
// that does not describe the values carried; encoding sends whatever the
// value holds, so the receiver's checks see a malformed Mat as it was sent.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// Floats is a bare []float64 on the wire: one block of little-endian
// IEEE-754 bits, 8 bytes per value, whose length gob's framing carries. An
// empty block decodes to nil: on the wire, empty and nil are the same.
type Floats []float64

// GobEncode writes f as one block of float64 bits. It never fails: a failed
// body encode would leave net/rpc's request header in the connection's
// buffer and corrupt the next call.
func (f Floats) GobEncode() ([]byte, error) {
	return appendFloats(nil, f), nil
}

// GobDecode reads a block written by GobEncode, rejecting one whose length
// is not a whole number of values. It allocates at most len(b) bytes.
func (f *Floats) GobDecode(b []byte) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("distkm: float64 block of %d bytes", len(b))
	}
	*f = decodeFloats(b)
	return nil
}

// GobEncode writes m's shape and then its values as one block of float64
// bits. Like Floats.GobEncode it never fails, whatever m holds.
func (m Mat) GobEncode() ([]byte, error) {
	b := make([]byte, 0, 2*binary.MaxVarintLen64+8*len(m.Data))
	b = binary.AppendVarint(b, int64(m.Rows))
	b = binary.AppendVarint(b, int64(m.Cols))
	return appendFloats(b, m.Data), nil
}

// GobDecode reads a Mat written by GobEncode. The bytes come from another
// process, so it rejects unreadable dimensions, a value block that is not a
// whole number of values, and a shape that is negative or whose Rows·Cols
// differs from the value count. It allocates at most len(b) bytes.
func (m *Mat) GobDecode(b []byte) error {
	rows, n := binary.Varint(b)
	if n <= 0 {
		return errors.New("distkm: Mat: malformed row count")
	}
	cols, k := binary.Varint(b[n:])
	if k <= 0 {
		return errors.New("distkm: Mat: malformed column count")
	}
	block := b[n+k:]
	if len(block)%8 != 0 {
		return fmt.Errorf("distkm: Mat: float64 block of %d bytes", len(block))
	}
	if int64(int(rows)) != rows || int64(int(cols)) != cols || !shapeFits(int(rows), int(cols), len(block)/8) {
		return fmt.Errorf("distkm: Mat: %d×%d does not hold %d values", rows, cols, len(block)/8)
	}
	*m = Mat{Rows: int(rows), Cols: int(cols), Data: decodeFloats(block)}
	return nil
}

// shapeFits reports whether a rows×cols matrix holds exactly n values:
// neither dimension negative, and the product, computed without overflow,
// equal to n.
func shapeFits(rows, cols, n int) bool {
	if rows < 0 || cols < 0 {
		return false
	}
	if cols == 0 {
		return n == 0
	}
	return n%cols == 0 && n/cols == rows
}

// appendFloats appends v to b as little-endian float64 bits.
func appendFloats(b []byte, v []float64) []byte {
	at := len(b)
	b = slices.Grow(b, 8*len(v))[:at+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[at+8*i:], math.Float64bits(x))
	}
	return b
}

// decodeFloats reads little-endian float64 bits from b, whose length the
// caller has checked is a multiple of 8; empty b yields nil.
func decodeFloats(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
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
// matches the single-process run point for point. Points and Weights cross
// as raw float64 blocks (Mat, Floats), 8 bytes per value whatever the
// shard's precision. Float32 asks the worker to store the shard narrowed to
// float32 and answer every distance pass with the float32 span bodies
// (mrkm's span functions); the narrowing happens on the worker, so a float32
// fit over W workers is bit-identical to mrkm.Init + mrkm.Lloyd over float32
// points with Mappers: W.
type LoadArgs struct {
	Ref     ShardRef
	Lo      int
	Points  Mat
	Weights Floats // nil ⇒ unweighted
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
	W Floats
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
	Point Floats
}

// StatusReply describes a worker for health checks and the kmcoord banner.
type StatusReply struct {
	Shards int
	Points int
}

func matOf(rows, cols int, data []float64) Mat { return Mat{Rows: rows, Cols: cols, Data: data} }
