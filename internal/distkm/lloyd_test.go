package distkm

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/mrkm"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

// methodCounter counts the calls of one RPC method it passes through.
type methodCounter struct {
	Client
	method string
	n      *atomic.Int64
}

func (c methodCounter) Call(method string, args, reply any) error {
	if method == c.method {
		c.n.Add(1)
	}
	return c.Client.Call(method, args, reply)
}

// Lloyd is one driver over two backends, so lloyd.Run at Parallelism W,
// mrkm.Lloyd at Mappers W and a W-shard coordinator return the same result
// bit for bit — centers, cost trace, cost, assignment, iterations and
// convergence — in both storage precisions: for a capped run, for a
// max_iter 0 run that needs more than 20 iterations, and for an init with a
// duplicated center row, which empties a cluster that every backend then
// reseeds.
func TestLloydAgreesAcrossBackends(t *testing.T) {
	blobsDS := blobs(t, 5, 80, 4, 3, 41)
	slowDS := blobs(t, 8, 50, 2, 3, 3)
	slowInit := geom.NewMatrix(8, 2) // eight points of one blob: a long way to go
	for c := 0; c < slowInit.Rows; c++ {
		copy(slowInit.Row(c), slowDS.Point(c))
	}
	dupInit := seed.KMeansPP(blobsDS, 5, rng.New(42), 0)
	copy(dupInit.Row(3), dupInit.Row(1))
	cases := []struct {
		name     string
		ds       *geom.Dataset
		init     *geom.Matrix
		maxIter  int
		minIters int  // the run must take at least this many iterations
		reseeds  bool // the run must reseed an empty cluster
	}{
		{"capped", blobsDS, seed.Random(blobsDS, 5, rng.New(43)), 3, 3, false},
		{"max_iter=0", slowDS, slowInit, 0, 21, false},
		{"empty-cluster", blobsDS, dupInit, 0, 2, true},
	}
	for _, tc := range cases {
		for _, f32 := range []bool{false, true} {
			for _, w := range []int{1, 2, 3} {
				var want, mr lloyd.Result
				if f32 {
					ds32 := geom.ConvertSet[float32](tc.ds)
					want = lloyd.Run(ds32, tc.init, lloyd.Config{MaxIter: tc.maxIter, Parallelism: w})
					mr, _ = mrkm.Lloyd(ds32, tc.init, tc.maxIter, mrkm.Config{Mappers: w})
				} else {
					want = lloyd.Run(tc.ds, tc.init, lloyd.Config{MaxIter: tc.maxIter, Parallelism: w})
					mr, _ = mrkm.Lloyd(tc.ds, tc.init, tc.maxIter, mrkm.Config{Mappers: w})
				}
				if want.Iters < tc.minIters {
					t.Fatalf("%s f32=%v W=%d: %d iterations, the case needs at least %d", tc.name, f32, w, want.Iters, tc.minIters)
				}
				clients, closeAll := LoopbackCluster(w)
				t.Cleanup(closeAll)
				var farthest atomic.Int64
				for i, cl := range clients {
					clients[i] = methodCounter{cl, "Worker.Farthest", &farthest}
				}
				c, err := NewCoordinator(clients)
				if err != nil {
					t.Fatal(err)
				}
				c.SetFloat32(f32)
				if err := c.Distribute(tc.ds); err != nil {
					t.Fatal(err)
				}
				dist, _, err := c.Lloyd(tc.init, tc.maxIter)
				if err != nil {
					t.Fatal(err)
				}
				if got := farthest.Load() > 0; got != tc.reseeds {
					t.Fatalf("%s f32=%v W=%d: %d Farthest calls, want reseeds=%v", tc.name, f32, w, farthest.Load(), tc.reseeds)
				}
				requireSameLloyd(t, tc.name+"/mrkm", mr, want)
				requireSameLloyd(t, tc.name+"/dist", dist, want)
			}
		}
	}
}

// requireSameLloyd fails unless got and want agree bit for bit.
func requireSameLloyd(t *testing.T, what string, got, want lloyd.Result) {
	t.Helper()
	requireBitIdentical(t, what+" centers", got.Centers, want.Centers)
	requireSameTrace(t, what+" cost trace", got.CostTrace, want.CostTrace)
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: cost %v, want %v", what, got.Cost, want.Cost)
	}
	if !slices.Equal(got.Assign, want.Assign) {
		t.Fatalf("%s: assignments differ", what)
	}
	if got.Iters != want.Iters || got.Converged != want.Converged {
		t.Fatalf("%s: iters/converged %d/%v, want %d/%v", what, got.Iters, got.Converged, want.Iters, want.Converged)
	}
}
