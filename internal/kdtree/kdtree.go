// Package kdtree implements the filtering algorithm of Kanungo, Mount,
// Netanyahu, Piatko, Silverman and Wu ("An efficient k-means clustering
// algorithm: analysis and implementation"; the local-search companion paper
// is cited as [23] in Scalable K-Means++'s related work): Lloyd's iteration
// driven by a kd-tree over the points.
//
// The tree is built once; every iteration traverses it with a shrinking set
// of candidate centers. A subtree whose bounding box is provably dominated by
// one candidate is assigned wholesale using precomputed weighted aggregates
// (count, Σw·x, Σw·‖x‖²), skipping every point-center distance inside it.
// The result is bit-exact standard Lloyd — only the work changes — which the
// tests assert against the naive kernel.
package kdtree

import (
	"math"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

// node is one kd-tree node over a contiguous range of the (reordered) point
// index array.
type node struct {
	lo, hi int32 // index range [lo, hi) into Tree.idx
	axis   int32 // split axis (-1 for leaves)
	left   int32 // child node indices (-1 for leaves)
	right  int32
	boxMin []float64 // bounding box of the points in the range
	boxMax []float64
	weight float64   // Σ w
	wsum   []float64 // Σ w·x
	sumSq  float64   // Σ w·‖x‖²
}

// Tree is a kd-tree with per-node weighted aggregates for filtering.
type Tree struct {
	ds       *geom.Dataset
	idx      []int32
	nodes    []node
	leafSize int
}

// Build constructs the tree. leafSize ≤ 0 selects the default (16).
func Build(ds *geom.Dataset, leafSize int) *Tree {
	if leafSize <= 0 {
		leafSize = 16
	}
	t := &Tree{ds: ds, idx: make([]int32, ds.N()), leafSize: leafSize}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	if ds.N() > 0 {
		t.build(0, int32(ds.N()))
	}
	return t
}

// build creates the node covering idx[lo:hi] and returns its index.
func (t *Tree) build(lo, hi int32) int32 {
	d := t.ds.Dim()
	n := node{lo: lo, hi: hi, axis: -1, left: -1, right: -1,
		boxMin: make([]float64, d), boxMax: make([]float64, d), wsum: make([]float64, d)}
	for j := 0; j < d; j++ {
		n.boxMin[j] = math.Inf(1)
		n.boxMax[j] = math.Inf(-1)
	}
	for _, i := range t.idx[lo:hi] {
		p := t.ds.Point(int(i))
		w := t.ds.W(int(i))
		n.weight += w
		n.sumSq += w * geom.SqNorm(p)
		for j, v := range p {
			if v < n.boxMin[j] {
				n.boxMin[j] = v
			}
			if v > n.boxMax[j] {
				n.boxMax[j] = v
			}
			n.wsum[j] += w * v
		}
	}
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, n)

	if int(hi-lo) <= t.leafSize {
		return id
	}
	// Split on the widest axis at the midpoint (sliding toward median when
	// degenerate).
	axis, width := 0, -1.0
	for j := 0; j < d; j++ {
		if w := n.boxMax[j] - n.boxMin[j]; w > width {
			axis, width = j, w
		}
	}
	if width <= 0 {
		return id // all points identical: keep as leaf
	}
	mid := (t.nodes[id].boxMin[axis] + t.nodes[id].boxMax[axis]) / 2
	cut := t.partition(lo, hi, axis, mid)
	if cut == lo || cut == hi {
		// Midpoint split failed (heavy duplication); split by median index.
		cut = (lo + hi) / 2
		t.nthElement(lo, hi, cut, axis)
	}
	left := t.build(lo, cut)
	right := t.build(cut, hi)
	t.nodes[id].axis = int32(axis)
	t.nodes[id].left = left
	t.nodes[id].right = right
	return id
}

// partition reorders idx[lo:hi] so points with coordinate < mid on axis come
// first, returning the boundary.
func (t *Tree) partition(lo, hi int32, axis int, mid float64) int32 {
	i, j := lo, hi
	for i < j {
		if t.ds.Point(int(t.idx[i]))[axis] < mid {
			i++
		} else {
			j--
			t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
		}
	}
	return i
}

// nthElement partially sorts idx[lo:hi] so idx[k] is the k-th point by the
// axis coordinate (quickselect).
func (t *Tree) nthElement(lo, hi, k int32, axis int) {
	for hi-lo > 1 {
		pivot := t.ds.Point(int(t.idx[(lo+hi)/2]))[axis]
		i, j := lo, hi-1
		for i <= j {
			for t.ds.Point(int(t.idx[i]))[axis] < pivot {
				i++
			}
			for t.ds.Point(int(t.idx[j]))[axis] > pivot {
				j--
			}
			if i <= j {
				t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// accum collects the per-center update statistics of one filtered iteration.
type accum struct {
	weight []float64
	sum    []float64
	cost   float64
}

// Step performs ONE exact Lloyd iteration: it assigns every point (or whole
// subtree) to its nearest center among `centers`, returns the new centroids
// (empty clusters keep their previous position), the total cost under the
// OLD centers, and the number of point-center distance evaluations actually
// performed (the work counter the filtering is meant to shrink).
func (t *Tree) Step(centers *geom.Matrix) (*geom.Matrix, float64, int64) {
	k, d := centers.Rows, centers.Cols
	acc := accum{weight: make([]float64, k), sum: make([]float64, k*d)}
	cand := make([]int32, k)
	for c := range cand {
		cand[c] = int32(c)
	}
	var distEvals int64
	if len(t.nodes) > 0 {
		t.filter(0, centers, cand, &acc, &distEvals)
	}
	next := geom.NewMatrix(k, d)
	for c := 0; c < k; c++ {
		row := next.Row(c)
		if acc.weight[c] > 0 {
			inv := 1 / acc.weight[c]
			for j := 0; j < d; j++ {
				row[j] = acc.sum[c*d+j] * inv
			}
		} else {
			copy(row, centers.Row(c))
		}
	}
	return next, acc.cost, distEvals
}

// filter is the recursive filtering traversal.
func (t *Tree) filter(ni int32, centers *geom.Matrix, cand []int32, acc *accum, distEvals *int64) {
	n := &t.nodes[ni]
	d := centers.Cols

	// Closest candidate to the cell midpoint.
	best := cand[0]
	bestD := math.Inf(1)
	mid := make([]float64, d)
	for j := 0; j < d; j++ {
		mid[j] = (n.boxMin[j] + n.boxMax[j]) / 2
	}
	for _, c := range cand {
		*distEvals++
		if dist := geom.SqDist(mid, centers.Row(int(c))); dist < bestD {
			best, bestD = c, dist
		}
	}
	// Prune candidates dominated by best over the whole box.
	kept := cand[:0:0] // fresh slice; cand belongs to the caller
	zs := centers.Row(int(best))
	for _, c := range cand {
		if c == best {
			kept = append(kept, c)
			continue
		}
		if !dominated(zs, centers.Row(int(c)), n.boxMin, n.boxMax) {
			kept = append(kept, c)
		}
	}

	if len(kept) == 1 {
		// Whole subtree belongs to `best`: bulk update using aggregates.
		c := int(best)
		acc.weight[c] += n.weight
		for j := 0; j < d; j++ {
			acc.sum[c*d+j] += n.wsum[j]
		}
		// Σ w‖x−z‖² = Σ w‖x‖² − 2·z·Σ wx + ‖z‖²·Σ w
		acc.cost += n.sumSq - 2*geom.Dot(zs, n.wsum) + geom.SqNorm(zs)*n.weight
		return
	}
	if n.axis < 0 { // leaf: brute force over the kept candidates
		for _, i := range t.idx[n.lo:n.hi] {
			p := t.ds.Point(int(i))
			w := t.ds.W(int(i))
			bc, bd := kept[0], math.Inf(1)
			for _, c := range kept {
				*distEvals++
				if dist := geom.SqDist(p, centers.Row(int(c))); dist < bd {
					bc, bd = c, dist
				}
			}
			c := int(bc)
			acc.weight[c] += w
			for j, v := range p {
				acc.sum[c*d+j] += w * v
			}
			acc.cost += w * bd
		}
		return
	}
	t.filter(n.left, centers, kept, acc, distEvals)
	t.filter(n.right, centers, kept, acc, distEvals)
}

// dominated reports whether every point of the box [boxMin, boxMax] is at
// least as close to zStar as to z — the Kanungo et al. pruning test: take
// the box vertex extremal in the direction z − z*; if even that vertex
// prefers z*, all of the box does.
func dominated(zStar, z, boxMin, boxMax []float64) bool {
	var vz, vs float64
	for j := range z {
		v := boxMin[j]
		if z[j] > zStar[j] {
			v = boxMax[j]
		}
		dz := v - z[j]
		ds := v - zStar[j]
		vz += dz * dz
		vs += ds * ds
	}
	return vs <= vz
}

// Nearest returns the index (into the original dataset ordering) of the
// point in the tree closest to q and the squared distance to it. It is the
// standard kd-tree nearest-neighbor descent: visit the child whose bounding
// box is nearer first, prune any subtree whose box cannot beat the best
// distance found so far. Built over a set of cluster centers it answers
// nearest-center queries in roughly O(log k) per point, which is how
// Model.PredictBatch serves large-k prediction. Ties between equidistant
// points may resolve to either index. Traversal is read-only, so concurrent
// Nearest calls on one Tree are safe.
func (t *Tree) Nearest(q []float64) (int, float64) {
	if len(t.nodes) == 0 {
		panic("kdtree: Nearest on an empty tree")
	}
	if len(q) != t.ds.Dim() {
		panic("kdtree: Nearest dimension mismatch")
	}
	best, bestD := -1, math.Inf(1)
	t.nearest(0, q, &best, &bestD)
	if best < 0 {
		// Every distance comparison failed — q has NaN coordinates. Match
		// the linear-scan convention (geom.Nearest) of answering index 0.
		best, bestD = int(t.idx[0]), geom.SqDist(q, t.ds.Point(int(t.idx[0])))
	}
	return best, bestD
}

// nearest is the recursive NN descent for Nearest.
func (t *Tree) nearest(ni int32, q []float64, best *int, bestD *float64) {
	n := &t.nodes[ni]
	if boxSqDist(q, n.boxMin, n.boxMax) >= *bestD {
		return
	}
	if n.axis < 0 { // leaf
		for _, i := range t.idx[n.lo:n.hi] {
			if d := geom.SqDistBound(t.ds.Point(int(i)), q, *bestD); d < *bestD {
				*best, *bestD = int(i), d
			}
		}
		return
	}
	l, r := n.left, n.right
	if boxSqDist(q, t.nodes[l].boxMin, t.nodes[l].boxMax) >
		boxSqDist(q, t.nodes[r].boxMin, t.nodes[r].boxMax) {
		l, r = r, l
	}
	t.nearest(l, q, best, bestD)
	t.nearest(r, q, best, bestD)
}

// boxSqDist returns the squared distance from q to the axis-aligned box
// [boxMin, boxMax] (0 when q is inside).
func boxSqDist(q, boxMin, boxMax []float64) float64 {
	var s float64
	for j, v := range q {
		if v < boxMin[j] {
			d := boxMin[j] - v
			s += d * d
		} else if v > boxMax[j] {
			d := v - boxMax[j]
			s += d * d
		}
	}
	return s
}

// Run drives Step to convergence (assignment fixed point measured by center
// movement) or maxIter, mirroring lloyd.Run semantics. It returns the final
// centers, exact final cost, iterations and total distance evaluations.
func (t *Tree) Run(centers *geom.Matrix, maxIter int) (*geom.Matrix, float64, int, int64) {
	maxIter = lloyd.MaxIter(maxIter)
	cur := centers.Clone()
	var evals int64
	iters := 0
	for ; iters < maxIter; iters++ {
		next, _, e := t.Step(cur)
		evals += e
		moved := false
		for i := range next.Data {
			if next.Data[i] != cur.Data[i] {
				moved = true
				break
			}
		}
		cur = next
		if !moved {
			iters++
			break
		}
	}
	return cur, lloyd.Cost(t.ds, cur, 0), iters, evals
}
