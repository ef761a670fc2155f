package geom

// Nearest returns the index of the row of centers closest to p and the
// squared distance to it. centers must have at least one row.
func Nearest(p []float64, centers *Matrix) (int, float64) {
	if centers.Rows == 0 {
		panic("geom: Nearest with no centers")
	}
	best := 0
	bestD := SqDist(p, centers.Row(0))
	for c := 1; c < centers.Rows; c++ {
		if d := SqDistBound(p, centers.Row(c), bestD); d < bestD {
			bestD = d
			best = c
		}
	}
	return best, bestD
}

// Cost returns φ_X(C) = Σ_i w_i · d²(x_i, C), the weighted k-means cost of
// the dataset against the given centers, computed serially. For the parallel
// version see lloyd.Cost.
func Cost(ds *Dataset, centers *Matrix) float64 {
	var total float64
	for i := 0; i < ds.N(); i++ {
		_, d := Nearest(ds.Point(i), centers)
		total += ds.W(i) * d
	}
	return total
}
