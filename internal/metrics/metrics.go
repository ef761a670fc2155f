// Package metrics provides clustering-quality measures beyond the k-means
// cost the paper reports: silhouette (sampled for large n), Davies–Bouldin,
// and the external measures purity and normalized mutual information against
// ground-truth labels (available for the GaussMixture generator, whose true
// mixture components are known). Only the root package's integration tests
// use them, to check that the D²-based seedings recover a mixture's
// structure and not just a low cost.
package metrics

import (
	"math"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

// Silhouette returns the mean silhouette coefficient over at most maxSample
// points (uniformly sampled when n exceeds it; maxSample ≤ 0 means 1000).
// The coefficient of point i is (b−a)/max(a,b), where a is the mean distance
// to its own cluster and b the smallest mean distance to another cluster.
// Clusters with a single member contribute 0, per convention. Returns 0 when
// fewer than 2 clusters are non-empty.
func Silhouette(ds *geom.Dataset, assign []int32, k int, maxSample int, seed uint64) float64 {
	n := ds.N()
	if n == 0 || k < 2 {
		return 0
	}
	if maxSample <= 0 {
		maxSample = 1000
	}
	sample := make([]int, 0, maxSample)
	if n <= maxSample {
		for i := 0; i < n; i++ {
			sample = append(sample, i)
		}
	} else {
		sample = rng.New(seed).SampleWithoutReplacement(n, maxSample)
	}

	sizes := make([]int, k)
	for _, a := range assign {
		sizes[a]++
	}
	nonEmpty := 0
	for _, s := range sizes {
		if s > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		return 0
	}

	var total float64
	var counted int
	sums := make([]float64, k)
	counts := make([]int, k)
	for _, i := range sample {
		ci := int(assign[i])
		if sizes[ci] < 2 {
			counted++ // contributes 0
			continue
		}
		for c := range sums {
			sums[c] = 0
			counts[c] = 0
		}
		p := ds.Point(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			c := int(assign[j])
			sums[c] += geom.Dist(p, ds.Point(j))
			counts[c]++
		}
		a := sums[ci] / float64(counts[ci])
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || counts[c] == 0 {
				continue
			}
			if m := sums[c] / float64(counts[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			counted++
			continue
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// DaviesBouldin returns the Davies–Bouldin index (lower is better): the mean
// over clusters of the worst ratio (σ_i + σ_j)/d(c_i, c_j), where σ is the
// mean distance of a cluster's points to its centroid. Empty clusters are
// skipped. Returns 0 when fewer than 2 clusters are non-empty.
func DaviesBouldin(ds *geom.Dataset, centers *geom.Matrix, assign []int32) float64 {
	k := centers.Rows
	sigma := make([]float64, k)
	count := make([]float64, k)
	for i := 0; i < ds.N(); i++ {
		c := int(assign[i])
		sigma[c] += ds.W(i) * geom.Dist(ds.Point(i), centers.Row(c))
		count[c] += ds.W(i)
	}
	var live []int
	for c := 0; c < k; c++ {
		if count[c] > 0 {
			sigma[c] /= count[c]
			live = append(live, c)
		}
	}
	if len(live) < 2 {
		return 0
	}
	var total float64
	for _, i := range live {
		worst := 0.0
		for _, j := range live {
			if i == j {
				continue
			}
			d := geom.Dist(centers.Row(i), centers.Row(j))
			if d == 0 {
				continue
			}
			if r := (sigma[i] + sigma[j]) / d; r > worst {
				worst = r
			}
		}
		total += worst
	}
	return total / float64(len(live))
}

// Purity returns the fraction of points whose cluster's majority true label
// matches their own: Σ_c max_l |c ∩ l| / n. In [0, 1]; higher is better.
// assign and labels must have equal length.
func Purity(assign []int32, labels []int, k, numLabels int) float64 {
	if len(assign) != len(labels) || len(assign) == 0 {
		panic("metrics: Purity needs equal-length non-empty assign/labels")
	}
	counts := make([]int, k*numLabels)
	for i, a := range assign {
		counts[int(a)*numLabels+labels[i]]++
	}
	total := 0
	for c := 0; c < k; c++ {
		best := 0
		for l := 0; l < numLabels; l++ {
			if v := counts[c*numLabels+l]; v > best {
				best = v
			}
		}
		total += best
	}
	return float64(total) / float64(len(assign))
}

// NMI returns the normalized mutual information between the clustering and
// the true labels, normalized by the arithmetic mean of the entropies
// (the sklearn default). In [0, 1]; 1 means identical partitions. Returns 1
// when both partitions are trivially single-class.
func NMI(assign []int32, labels []int, k, numLabels int) float64 {
	if len(assign) != len(labels) || len(assign) == 0 {
		panic("metrics: NMI needs equal-length non-empty assign/labels")
	}
	n := float64(len(assign))
	joint := make([]float64, k*numLabels)
	pa := make([]float64, k)
	pl := make([]float64, numLabels)
	for i, a := range assign {
		joint[int(a)*numLabels+labels[i]]++
		pa[a]++
		pl[labels[i]]++
	}
	var mi, ha, hl float64
	for c := 0; c < k; c++ {
		for l := 0; l < numLabels; l++ {
			pij := joint[c*numLabels+l] / n
			if pij > 0 {
				mi += pij * math.Log(pij*n*n/(pa[c]*pl[l]))
			}
		}
	}
	for _, v := range pa {
		if v > 0 {
			p := v / n
			ha -= p * math.Log(p)
		}
	}
	for _, v := range pl {
		if v > 0 {
			p := v / n
			hl -= p * math.Log(p)
		}
	}
	denom := (ha + hl) / 2
	if denom == 0 {
		return 1 // both partitions are single-class: identical
	}
	nmi := mi / denom
	// Clamp tiny negative rounding.
	if nmi < 0 && nmi > -1e-12 {
		nmi = 0
	}
	return nmi
}
