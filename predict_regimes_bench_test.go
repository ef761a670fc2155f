package kmeansll

import (
	"fmt"
	"testing"
)

// BenchmarkPredictRegimes compares PredictBatch's kd-tree descent against
// the blocked linear scan across (dim, k), the measurement behind
// predictTreeMinK, predictTreeMaxDim and predictPanelTreeK, and times
// the public entry point, whose regime depends on the build's kernel table
// (predictTree). Each shape runs two query sets: the first 512 points the
// model was fitted on (q=fit), and 512 points of an unrelated mixture
// (q=other). The tree prunes best for queries near a center, so q=fit is
// its good case; pruning decays rapidly with dimension.
func BenchmarkPredictRegimes(b *testing.B) {
	for _, sh := range []struct{ dim, k int }{
		{1, 256}, {1, 384}, {1, 1024}, {1, 2048},
		{2, 256}, {2, 384}, {2, 1024}, {2, 2048},
		{3, 64}, {3, 256}, {3, 384}, {3, 1024}, {3, 2048},
		{4, 64}, {4, 256}, {4, 384}, {4, 1024}, {4, 2048},
		{16, 64}, {16, 256}, {58, 64}, {58, 256},
	} {
		dim, k := sh.dim, sh.k
		pts := makeBlobs(b, 20*k, dim, k, 2, uint64(dim+k))
		m, err := Cluster(pts, Config{K: k, Seed: 3, MaxIter: 5})
		if err != nil {
			b.Fatal(err)
		}
		out := make([]int, 512)
		for _, q := range []struct {
			name    string
			queries [][]float64
		}{{"fit", pts[:512]}, {"other", makeBlobs(b, 512, dim, k, 2, 9)}} {
			for _, regime := range []string{"tree", "linear", "public"} {
				run := func() { m.predictBatch(q.queries, out, 1, regime == "tree") }
				if regime == "public" {
					run = func() { m.PredictBatchInto(q.queries, out, 1) }
				}
				b.Run(fmt.Sprintf("%s/d=%d/k=%d/q=%s", regime, dim, k, q.name), func(b *testing.B) {
					run()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
		}
	}
}
