package lloyd

import (
	"math"

	"kmeansll/internal/geom"
)

// Spherical k-means clusters directions instead of positions: points and
// centers live on the unit sphere and similarity is cosine. It is the
// standard k-means modification for text/TF-IDF workloads — one of the
// application-specific variants the paper's conclusion (§7) asks about
// parallelizing. Because ‖x−c‖² = 2·(1−cos θ) for unit vectors, spherical
// k-means is exactly Euclidean k-means on the normalized data with one extra
// twist: the centroid is re-normalized after every update. All seeding
// algorithms in this repository therefore apply unchanged to the normalized
// dataset, including k-means||.

// NormalizeRows scales every row of the dataset to unit L2 norm in place.
// Zero rows are left untouched (they cannot be normalized). Returns the
// number of zero rows encountered.
func NormalizeRows[T geom.Float](ds *geom.Set[T]) int { return normalize(ds.X) }

// normalize scales every row of x to unit L2 norm in place, leaves zero
// rows as they are, and returns how many it left.
func normalize[T geom.Float](x *geom.Mat[T]) int {
	zeros := 0
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		n := math.Sqrt(float64(geom.SqNorm(row)))
		if n == 0 {
			zeros++
			continue
		}
		geom.Scale(row, 1/n)
	}
	return zeros
}

// sphere is the Passes backend of spherical k-means over row-normalized
// data: the in-process backend's passes against the unit-norm directions of
// Drive's centers. Drive moves each center to its cluster's mean Σw·x/Σw,
// whose direction Σw·x/‖Σw·x‖ is the spherical centroid, and reseeds an
// empty cluster to a point, which is its own direction. A zero center has
// no direction and is scanned as the zero vector.
type sphere[T geom.Float] struct {
	chunks[T]
	dirs *geom.Matrix // the directions of the centers the last pass saw
}

func (p *sphere[T]) Step(centers *geom.Matrix) (*geom.Matrix, float64, error) {
	return p.chunks.Step(p.unit(centers))
}

func (p *sphere[T]) Farthest(centers *geom.Matrix) ([]float64, error) {
	return p.chunks.Farthest(p.unit(centers))
}

func (p *sphere[T]) Assign(centers *geom.Matrix) ([]int32, float64, error) {
	return p.chunks.Assign(p.unit(centers))
}

// unit returns the directions of centers, in a buffer every pass reuses.
func (p *sphere[T]) unit(centers *geom.Matrix) *geom.Matrix {
	if p.dirs == nil {
		p.dirs = geom.NewMatrix(centers.Rows, centers.Cols)
	}
	copy(p.dirs.Data, centers.Data)
	normalize(p.dirs)
	return p.dirs
}
