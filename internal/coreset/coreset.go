// Package coreset implements StreamKM++ (Ackermann, Lammersen, Märtens,
// Raupach, Sohler, Swierkot; ALENEX 2010) — the second streaming baseline
// discussed in the paper's related work (§2): a merge-and-reduce streaming
// coreset for k-means built on a "coreset tree" that performs k-means++-style
// adaptive sampling in O(log m) time per sample.
//
// A coreset here is a small weighted point set S such that clustering S is a
// good proxy for clustering the full stream: the weighted cost of any center
// set on S approximates its cost on the input. StreamKM++ maintains
// merge-and-reduce buckets of size m; every bucket reduction runs the coreset
// tree to select m representatives from 2m weighted points.
//
// The final clustering step — weighted k-means++ plus weighted Lloyd on the
// coreset — is shared with k-means||'s Step 8, which is why the paper groups
// these algorithms together: they differ in how the small intermediate set is
// built, and the harness compares exactly that (size, passes, quality).
package coreset

import (
	"fmt"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// treeNode is one node of the coreset tree. Every node owns a set of point
// indices (into the bucket being reduced) and a representative point chosen
// from them; leaves form the coreset under construction.
type treeNode struct {
	rep    int     // index of the representative point
	points []int32 // indices owned by this node (leaves only keep these)
	// cost is Σ w_i·d²(x_i, rep) over owned points for a leaf; for an
	// internal node it caches child[0].cost + child[1].cost, kept current
	// by Reduce's root-path update after each split. The cached sum is the
	// same tree-structured addition the old full recursion performed, so
	// cost-proportional sampling draws bit-identical values.
	cost   float64
	child  [2]*treeNode
	parent *treeNode
	isLeaf bool
}

// Tree builds a size-m coreset of a weighted dataset via the coreset tree.
type Tree struct {
	ds *geom.Dataset
	r  *rng.Rng
}

// NewTree prepares a coreset-tree reducer over ds using the given RNG.
func NewTree(ds *geom.Dataset, r *rng.Rng) *Tree {
	return &Tree{ds: ds, r: r}
}

// Reduce selects m weighted representatives. If the dataset has ≤ m points
// it is returned as-is (copied).
func (t *Tree) Reduce(m int) *geom.Dataset {
	n := t.ds.N()
	if m <= 0 {
		panic("coreset: Reduce m must be positive")
	}
	if n <= m {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		out := t.ds.Subset(idx)
		if out.Weight == nil {
			out.Weight = ones(n)
		}
		return out
	}

	// Root: uniform (weight-proportional) representative over all points.
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	var first int
	if t.ds.Weight == nil {
		first = t.r.Intn(n)
	} else {
		first = t.r.WeightedIndex(t.ds.Weight)
	}
	root := &treeNode{rep: first, points: all, isLeaf: true}
	root.cost = t.leafCost(root)

	// Two pieces of incremental bookkeeping keep reduction O(m·depth) in
	// tree visits instead of the old O(m²): the leaf count is a counter and
	// the leaf list is collected once at the end (not rebuilt via a full
	// walk after every split), and every internal node caches its subtree
	// cost (updated along the split leaf's root path, not recomputed by a
	// whole-subtree recursion on every sampling descent). Both preserve the
	// old behavior bit for bit: the final collectLeaves DFS yields exactly
	// the order the per-split rebuild produced (a split leaf's children are
	// DFS-contiguous at the parent's position), and the cached sums perform
	// the same tree-structured additions the recursion did, so the sampled
	// coreset — and everything drawn from it downstream — is unchanged.
	nLeaves := 1
	for nLeaves < m {
		// Walk from the root by child-cost proportional choice — equivalent
		// to picking a leaf with probability ∝ its cost.
		leaf := t.pickLeaf(root)
		if leaf == nil || leaf.cost <= 0 {
			break // all mass is on representatives already
		}
		q := t.samplePoint(leaf)
		if q < 0 {
			break
		}
		l0, l1 := t.split(leaf, q)
		leaf.isLeaf = false
		leaf.points = nil
		leaf.child[0], leaf.child[1] = l0, l1
		l0.parent, l1.parent = leaf, leaf
		for n := leaf; n != nil; n = n.parent {
			n.cost = n.child[0].cost + n.child[1].cost
		}
		nLeaves++
	}
	leaves := collectLeaves(root)

	// Coreset: one representative per leaf, weighted by owned mass.
	out := &geom.Dataset{X: geom.NewMatrix(len(leaves), t.ds.Dim()), Weight: make([]float64, len(leaves))}
	for j, leaf := range leaves {
		copy(out.X.Row(j), t.ds.Point(leaf.rep))
		var w float64
		for _, i := range leaf.points {
			w += t.ds.W(int(i))
		}
		out.Weight[j] = w
	}
	return out
}

// pickLeaf descends from root choosing children with probability
// proportional to their (cached) subtree cost — O(depth) per pick.
func (t *Tree) pickLeaf(root *treeNode) *treeNode {
	node := root
	for !node.isLeaf {
		c0, c1 := node.child[0], node.child[1]
		total := c0.cost + c1.cost
		if !(total > 0) {
			return nil
		}
		if t.r.Float64()*total < c0.cost {
			node = c0
		} else {
			node = c1
		}
	}
	return node
}

// samplePoint draws a point of the leaf with probability proportional to its
// weighted squared distance from the leaf representative (k-means++ step
// inside the leaf). Returns -1 when no point has positive mass.
func (t *Tree) samplePoint(leaf *treeNode) int {
	rep := t.ds.Point(leaf.rep)
	target := t.r.Float64() * leaf.cost
	acc := 0.0
	last := -1
	for _, i := range leaf.points {
		ii := int(i)
		if ii == leaf.rep {
			continue
		}
		w := t.ds.W(ii) * geom.SqDist(t.ds.Point(ii), rep)
		if w <= 0 {
			continue
		}
		last = ii
		acc += w
		if target < acc {
			return ii
		}
	}
	return last
}

// split partitions the leaf's points between the old representative and the
// newly sampled point q by nearest-of-two.
func (t *Tree) split(leaf *treeNode, q int) (*treeNode, *treeNode) {
	repOld := t.ds.Point(leaf.rep)
	repNew := t.ds.Point(q)
	l0 := &treeNode{rep: leaf.rep, isLeaf: true}
	l1 := &treeNode{rep: q, isLeaf: true}
	for _, i := range leaf.points {
		ii := int(i)
		p := t.ds.Point(ii)
		if geom.SqDist(p, repOld) <= geom.SqDist(p, repNew) {
			l0.points = append(l0.points, i)
		} else {
			l1.points = append(l1.points, i)
		}
	}
	// q must live in l1 regardless of ties.
	if len(l1.points) == 0 {
		l1.points = append(l1.points, int32(q))
		filtered := l0.points[:0]
		for _, i := range l0.points {
			if int(i) != q {
				filtered = append(filtered, i)
			}
		}
		l0.points = filtered
	}
	l0.cost = t.leafCost(l0)
	l1.cost = t.leafCost(l1)
	return l0, l1
}

func (t *Tree) leafCost(leaf *treeNode) float64 {
	rep := t.ds.Point(leaf.rep)
	var c float64
	for _, i := range leaf.points {
		ii := int(i)
		c += t.ds.W(ii) * geom.SqDist(t.ds.Point(ii), rep)
	}
	return c
}

func collectLeaves(root *treeNode) []*treeNode {
	var out []*treeNode
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n.isLeaf {
			out = append(out, n)
			return
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(root)
	return out
}

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// Stream is the StreamKM++ merge-and-reduce pipeline: points arrive one at a
// time; full buckets of size M are reduced to coresets and merged up a
// binary hierarchy, so at any moment the memory footprint is O(M·log(n/M))
// and a global size-M coreset can be extracted.
type Stream struct {
	m      int
	dim    int
	seed   uint64 // construction seed; drives ClusterOpt's stochastic refiners
	r      *rng.Rng
	fill   *geom.Dataset   // bucket being filled (level 0, raw points)
	levels []*geom.Dataset // levels[i] = coreset bucket at level i (nil = empty)
	n      int
}

// NewStream creates a streaming coreset builder with coreset size m for
// dim-dimensional points. The paper-recommended m is roughly 200·k for the
// target cluster count k.
func NewStream(m, dim int, seedVal uint64) *Stream {
	if m < 2 {
		panic("coreset: stream coreset size must be ≥ 2")
	}
	if dim < 1 {
		panic("coreset: dimension must be ≥ 1")
	}
	s := &Stream{m: m, dim: dim, seed: seedVal, r: rng.New(seedVal)}
	s.resetFill()
	return s
}

func (s *Stream) resetFill() {
	s.fill = &geom.Dataset{X: &geom.Matrix{Cols: s.dim}, Weight: nil}
}

// N returns how many points have been consumed.
func (s *Stream) N() int { return s.n }

// Buffered returns how many (weighted) points the stream currently holds in
// memory across the fill buffer and the merge levels — the O(m·log(n/m))
// footprint the bucket scheme guarantees, as opposed to N, the lifetime
// total. Serving layers surface it as coreset occupancy.
func (s *Stream) Buffered() int {
	n := s.fill.N()
	for _, l := range s.levels {
		if l != nil {
			n += l.N()
		}
	}
	return n
}

// Dim returns the point dimensionality the stream was created with.
func (s *Stream) Dim() int { return s.dim }

// Add consumes one point.
func (s *Stream) Add(p []float64) {
	if len(p) != s.dim {
		panic(fmt.Sprintf("coreset: point dim %d, stream dim %d", len(p), s.dim))
	}
	s.fill.X.AppendRow(p)
	s.n++
	if s.fill.N() == s.m {
		bucket := s.fill
		s.resetFill()
		s.carry(bucket, 0)
	}
}

// carry inserts a size-m bucket at the given level, merging and reducing
// upward while a sibling exists (binary-counter merge-and-reduce).
func (s *Stream) carry(bucket *geom.Dataset, level int) {
	for {
		for len(s.levels) <= level {
			s.levels = append(s.levels, nil)
		}
		if s.levels[level] == nil {
			s.levels[level] = bucket
			return
		}
		merged := concat(s.levels[level], bucket)
		s.levels[level] = nil
		bucket = NewTree(merged, s.r).Reduce(s.m)
		level++
	}
}

// Coreset extracts the current global coreset: the union of all buckets and
// the partial fill, reduced to size m (or fewer when the stream is short).
func (s *Stream) Coreset() *geom.Dataset {
	var parts []*geom.Dataset
	if s.fill.N() > 0 {
		parts = append(parts, s.fill)
	}
	for _, b := range s.levels {
		if b != nil {
			parts = append(parts, b)
		}
	}
	if len(parts) == 0 {
		return &geom.Dataset{X: &geom.Matrix{Cols: s.dim}, Weight: nil}
	}
	union := parts[0]
	for i := 1; i < len(parts); i++ {
		union = concat(union, parts[i])
	}
	return NewTree(union, s.r.Split(uint64(s.n))).Reduce(s.m)
}

// DefaultClusterMaxIter caps the coreset refinement when the caller's
// lloyd.Config.MaxIter is zero — the fixed cap Cluster always used.
const DefaultClusterMaxIter = 100

// ClusterResult is the outcome of clustering the current coreset: the full
// refinement result (real Converged/Iters/Cost, not a bare center matrix —
// callers surface these) plus the seeding cost on the coreset. Assign and
// Outliers index coreset representatives, not stream points.
type ClusterResult struct {
	lloyd.RefineResult
	// SeedCost is the weighted cost of the k-means++ seeding on the
	// coreset, before refinement.
	SeedCost float64
}

// Cluster extracts the coreset and clusters it into k centers with weighted
// k-means++ followed by weighted Lloyd — the StreamKM++ endgame. It panics
// on an empty stream; ClusterOpt is the error-returning, optimizer-aware
// form.
func (s *Stream) Cluster(k int) lloyd.Result {
	res, err := s.ClusterOpt(k, lloyd.Opt{}, lloyd.Config{})
	if err != nil {
		panic("coreset: " + err.Error())
	}
	return res.Result
}

// ClusterOpt clusters the current coreset with the given refinement variant:
// weighted k-means++ seeds over the (optimizer-prepared) coreset, then opt
// refines under cfg (cfg.MaxIter 0 = DefaultClusterMaxIter; cfg.Parallelism
// 0 = serial, keeping refits deterministic and cheap). It errors on an empty
// stream or when the optimizer rejects the coreset (e.g. Spherical over
// zero rows).
func (s *Stream) ClusterOpt(k int, opt lloyd.Opt, cfg lloyd.Config) (ClusterResult, error) {
	cs := s.Coreset()
	if cs.N() == 0 {
		return ClusterResult{}, fmt.Errorf("Cluster on empty stream")
	}
	cs, err := lloyd.Prepare(opt, cs)
	if err != nil {
		return ClusterResult{}, err
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultClusterMaxIter
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	init := seed.KMeansPP(cs, k, s.r.Split(0xC0FFEE), cfg.Parallelism)
	seedCost := lloyd.Cost(cs, init, cfg.Parallelism)
	res := lloyd.Refine(opt, cs, init, cfg, s.seed)
	return ClusterResult{RefineResult: res, SeedCost: seedCost}, nil
}

// concat returns the weighted union of two datasets (copies).
func concat(a, b *geom.Dataset) *geom.Dataset {
	out := &geom.Dataset{X: geom.NewMatrix(a.N()+b.N(), a.Dim()), Weight: make([]float64, a.N()+b.N())}
	for i := 0; i < a.N(); i++ {
		copy(out.X.Row(i), a.Point(i))
		out.Weight[i] = a.W(i)
	}
	for i := 0; i < b.N(); i++ {
		copy(out.X.Row(a.N()+i), b.Point(i))
		out.Weight[a.N()+i] = b.W(i)
	}
	return out
}
