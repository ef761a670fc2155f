// Command kmcluster clusters a dataset with a chosen initialization method
// followed by a chosen refinement optimizer, and writes the final centers
// (and optionally the per-point assignment) as CSV. The input may be CSV, a
// binary .kmd file (mmap'd — opening it does no per-row parsing) or a shard
// manifest.
//
// Usage:
//
//	kmcluster -in points.csv -k 50 -init kmeansll -o centers.csv
//	kmcluster -in points.kmd -k 20 -init kmeans++ -assign assign.csv
//	kmcluster -in points.csv -k 20 -optimizer minibatch:b=512,iters=200
//	kmcluster -in noisy.csv -k 10 -optimizer trimmed:0.05
//	kmcluster -in shards/manifest.json -k 100 -init kmeansll -l 2 -rounds 5 -mr
//
// -init is one of: random, kmeans++, kmeansll, partition.
// -optimizer is the shared refinement spec the kmeansll library and kmserved
// accept: lloyd[:naive|elkan|hamerly] | minibatch[:b=N,iters=N] |
// trimmed:FRACTION | spherical. Fits run through kmeansll.ClusterDataset, so
// a given (-init, -optimizer, -seed) triple produces bit-identical centers
// to the library and to a kmserved fit job with the same spec.
// -mr runs the MapReduce realization of k-means|| and Lloyd
// (internal/mrkm: core.Init and lloyd.Run at one chunk per mapper) instead
// of the in-process implementation; it supports only the default lloyd
// optimizer, and -max-iter 0 means the library's default cap, as without
// -mr.
// -precision f32 runs the distance passes in single precision (see
// docs/kernels.md for the tolerance contract); over a float32 .kmd file the
// fit is zero-copy — the mmap'd payload is used directly. -mr -precision f32
// runs the float32 MapReduce realization, the bits a distributed
// kmcoord -precision f32 fit reproduces exactly.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"kmeansll"
	"kmeansll/internal/core"
	"kmeansll/internal/data"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/mrkm"
)

func main() {
	var (
		in       = flag.String("in", "", "input dataset: CSV, .kmd or a shard manifest (required)")
		out      = flag.String("o", "", "output CSV for centers (default stdout)")
		assign   = flag.String("assign", "", "optional output CSV for per-point cluster index")
		k        = flag.Int("k", 10, "number of clusters")
		initName = flag.String("init", "kmeansll", "random | kmeans++ | kmeansll | partition")
		l        = flag.Float64("l", 2, "k-means|| oversampling factor as multiple of k")
		rounds   = flag.Int("rounds", 0, "k-means|| rounds (0 = auto)")
		maxIter  = flag.Int("max-iter", 0, "refinement iteration cap; doubles as the minibatch step budget when iters is unset (0 = variant default)")
		seedVal  = flag.Uint64("seed", 1, "random seed")
		useMR    = flag.Bool("mr", false, "use the MapReduce realization (kmeansll init, lloyd optimizer only)")
		norm     = flag.Bool("normalize", false, "z-normalize columns before clustering")
		optSpec  = flag.String("optimizer", "lloyd", "refinement: lloyd[:kernel] | minibatch[:b=N,iters=N] | trimmed:F | spherical")
		precName = flag.String("precision", "f64", "distance arithmetic: f64 | f32 (see docs/kernels.md)")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "kmcluster: -in is required")
		os.Exit(2)
	}
	optimizer, err := kmeansll.ParseOptimizer(*optSpec)
	if err != nil {
		fatal(err)
	}
	precision, err := kmeansll.ParsePrecision(*precName)
	if err != nil {
		fatal(err)
	}
	var initMethod kmeansll.InitMethod
	switch *initName {
	case "random":
		initMethod = kmeansll.RandomInit
	case "kmeans++":
		initMethod = kmeansll.KMeansPlusPlus
	case "kmeansll":
		initMethod = kmeansll.KMeansParallel
	case "partition":
		initMethod = kmeansll.PartitionInit
	default:
		fmt.Fprintf(os.Stderr, "kmcluster: unknown -init %q\n", *initName)
		os.Exit(2)
	}

	// A float32 fit over a float32 .kmd file is zero-copy: the mmap'd payload
	// is the fit's working set and no widened float64 copy is materialized.
	// Every other combination loads through the usual float64 path.
	var (
		ds     *geom.Dataset
		ds32   *geom.Set[float32]
		closer io.Closer
	)
	if precision == kmeansll.Float32 && !*norm &&
		strings.EqualFold(filepath.Ext(*in), dsio.Ext) {
		r, err := dsio.Open(*in)
		if err != nil {
			fatal(err)
		}
		closer = r
		if r.Info().Float32 {
			ds32 = r.Dataset32()
		} else {
			ds = r.Dataset()
		}
	} else {
		ds, closer, err = data.Load(*in)
		if err != nil {
			fatal(err)
		}
	}
	defer closer.Close()
	if ds32 != nil {
		if err := ds32.Validate(); err != nil {
			fatal(err)
		}
	} else if err := ds.Validate(); err != nil {
		fatal(err)
	}
	if *norm {
		// ZNormalize mutates in place; an mmap'd .kmd dataset is read-only,
		// so normalize a private copy instead of faulting on the first write.
		w := ds.Weight
		if w != nil {
			w = append([]float64(nil), w...)
		}
		ds = &geom.Dataset{X: ds.X.Clone(), Weight: w}
		data.ZNormalize(ds)
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	n, dim := 0, 0
	if ds32 != nil {
		n, dim = ds32.N(), ds32.Dim()
	} else {
		n, dim = ds.N(), ds.Dim()
	}
	logf("kmcluster: %d points x %d dims, k=%d, init=%s, optimizer=%s, precision=%s",
		n, dim, *k, *initName, optimizer, precision)

	var centers *geom.Matrix
	var assignOut []int
	if *useMR {
		if optimizer != (kmeansll.Lloyd{}) {
			fatal(fmt.Errorf("-mr supports only the default lloyd optimizer, not %s", optimizer))
		}
		if initMethod != kmeansll.KMeansParallel {
			fatal(fmt.Errorf("-mr supports only -init kmeansll"))
		}
		cfg := core.Config{K: *k, L: *l * float64(*k), Rounds: *rounds, Seed: *seedVal}
		if precision == kmeansll.Float32 {
			// The float32 MapReduce realization: the same span bodies a
			// distributed float32 fit (kmcoord -precision f32) reproduces
			// bit for bit. A float32 .kmd input is already mmap'd as ds32;
			// anything else narrows once here.
			mds := ds32
			if mds == nil {
				mds = geom.ConvertSet[float32](ds)
			}
			centers, assignOut = fitMR(mds, cfg, *maxIter, logf)
		} else {
			centers, assignOut = fitMR(ds, cfg, *maxIter, logf)
		}
	} else {
		// The shared pipeline: exactly kmeansll.ClusterDataset, so the same
		// spec fits identically here, in the library, and in kmserved.
		cfg := kmeansll.Config{
			K: *k, Init: initMethod, Oversampling: *l, Rounds: *rounds,
			MaxIter: *maxIter, Seed: *seedVal, Optimizer: optimizer,
			Precision: precision,
		}
		var model *kmeansll.Model
		if ds32 != nil {
			model, err = kmeansll.ClusterDataset(ds32, cfg)
		} else {
			model, err = kmeansll.ClusterDataset(ds, cfg)
		}
		if err != nil {
			fatal(err)
		}
		logf("kmcluster: seeding cost %.6g", model.SeedCost)
		logf("kmcluster: %s converged=%v after %d iterations, final cost %.6g",
			optimizer, model.Converged, model.Iters, model.Cost)
		if model.Outliers != nil {
			logf("kmcluster: trimmed refinement flagged %d outliers (trimmed cost %.6g)",
				len(model.Outliers), model.TrimmedCost)
		}
		centers = geom.FromRows(model.Centers)
		assignOut = model.Assign
	}

	writeCenters := func(f *os.File) error {
		return data.WriteCSV(f, geom.NewDataset(centers))
	}
	if *out == "" {
		if err := writeCenters(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := writeCenters(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		logf("kmcluster: wrote %d centers to %s", centers.Rows, *out)
	}

	if *assign != "" {
		f, err := os.Create(*assign)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, a := range assignOut {
			if _, err := w.WriteString(strconv.Itoa(a) + "\n"); err != nil {
				fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		logf("kmcluster: wrote %d assignments to %s", len(assignOut), *assign)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kmcluster:", err)
	os.Exit(1)
}

// fitMR runs k-means|| and Lloyd on the MapReduce realization over points
// stored as T, logging each phase, and returns the centers and assignment.
func fitMR[T geom.Float](ds *geom.Set[T], cfg core.Config, iters int, logf func(string, ...any)) (*geom.Matrix, []int) {
	init, stats := mrkm.Init(ds, cfg, mrkm.Config{})
	logf("kmcluster: mapreduce init: %d jobs, %d candidates, seed cost %.4g",
		stats.MRRounds, stats.Candidates, stats.SeedCost)
	res, _ := mrkm.Lloyd(ds, init, iters, mrkm.Config{})
	logf("kmcluster: Lloyd converged=%v after %d iterations, final cost %.6g",
		res.Converged, res.Iters, res.Cost)
	assign := make([]int, len(res.Assign))
	for i, a := range res.Assign {
		assign[i] = int(a)
	}
	return res.Centers, assign
}
