package stream

import (
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/rng"
)

func tinyBlobs(k, m, dim int, seedVal uint64) *geom.Dataset {
	r := rng.New(seedVal)
	x := geom.NewMatrix(k*m, dim)
	for c := 0; c < k; c++ {
		for i := 0; i < m; i++ {
			row := x.Row(c*m + i)
			for j := 0; j < dim; j++ {
				row[j] = 50*float64(c) + r.NormFloat64()
			}
		}
	}
	return geom.NewDataset(x)
}

// M far beyond n: groups clamp to n (each a single point) and the run still
// returns k valid centers.
func TestPartitionGroupsClampToN(t *testing.T) {
	ds := tinyBlobs(2, 4, 3, 1) // 8 points
	centers, stats := Partition(ds, Config{K: 2, M: 1000, Seed: 2})
	if centers.Rows != 2 {
		t.Fatalf("got %d centers", centers.Rows)
	}
	if stats.Groups != 8 {
		t.Fatalf("groups = %d, want 8", stats.Groups)
	}
	if stats.Intermediate < 2 || stats.Intermediate > 8 {
		t.Fatalf("intermediate = %d out of [2, 8]", stats.Intermediate)
	}
}

// K = 1 drives the k-means# batch size to its floor (3·⌈ln 1⌉ = 0 → 1) and
// the whole pipeline degenerates gracefully to a centroid-like answer.
func TestPartitionKOne(t *testing.T) {
	ds := tinyBlobs(1, 30, 4, 3)
	centers, stats := Partition(ds, Config{K: 1, Seed: 4})
	if centers.Rows != 1 {
		t.Fatalf("got %d centers", centers.Rows)
	}
	if stats.SeedCost < 0 {
		t.Fatalf("negative cost %v", stats.SeedCost)
	}
}

// A batch of 1 (the minimum): k-means# still produces at least one center
// per group and at most k·batch.
func TestKMeansSharpUnitBatch(t *testing.T) {
	ds := tinyBlobs(3, 20, 3, 5)
	centers := KMeansSharp(ds, 3, 1, rng.New(6))
	if centers.Rows < 1 || centers.Rows > 3 {
		t.Fatalf("k-means# with batch 1 produced %d centers, want 1..3", centers.Rows)
	}
}

// KMeansSharp on a dataset smaller than one batch: the cap clamps to n and
// every center is a distinct input point.
func TestKMeansSharpTinyDataset(t *testing.T) {
	ds := tinyBlobs(1, 2, 3, 7) // 2 points
	centers := KMeansSharp(ds, 5, 10, rng.New(8))
	if centers.Rows > 2 {
		t.Fatalf("more centers (%d) than points (2)", centers.Rows)
	}
}

// Weighted inputs flow through the group clustering: total group weights
// must add up to the dataset's total weight.
func TestPartitionWeighted(t *testing.T) {
	ds := tinyBlobs(2, 25, 3, 9)
	w := make([]float64, ds.N())
	r := rng.New(10)
	var total float64
	for i := range w {
		w[i] = 1 + r.Float64()
		total += w[i]
	}
	ds.Weight = w
	centers, stats := Partition(ds, Config{K: 2, Seed: 11})
	if centers.Rows != 2 {
		t.Fatalf("got %d centers", centers.Rows)
	}
	if stats.SeedCost <= 0 {
		t.Fatalf("cost %v", stats.SeedCost)
	}
}
