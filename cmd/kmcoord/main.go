// Command kmcoord is the coordinator of the distributed k-means|| fitting
// tier: it connects to a set of kmworker processes, shards a dataset across
// them, runs Algorithm 2's sampling rounds plus distributed Lloyd iterations
// with every pass answered remotely (internal/distkm), and writes the fitted
// model in the kmeansll text format that kmserved and kmcluster consume.
//
// Usage:
//
//	kmworker -addr :9091 &
//	kmworker -addr :9092 &
//	kmcoord -workers localhost:9091,localhost:9092 \
//	        -data points.csv -k 20 -out model.kmm
//
//	# or with a synthetic Gaussian-mixture workload (§4.1 of the paper):
//	kmcoord -workers localhost:9091,localhost:9092 \
//	        -gen-n 100000 -gen-d 15 -gen-k 20 -k 20 -out model.kmm
//
// -data also accepts a .kmd binary dataset (mmap'd, no parse). With
// -manifest the coordinator never loads the dataset at all: it sends each
// worker the row ranges of the manifest's part files that make up its shard,
// and workers started with -data-dir mmap them locally — a fit over
// gigabytes moves only paths, centers and partial sums across the network.
//
// For equal seeds the resulting centers are bit-identical to a
// single-process mrkm fit with Mappers set to the worker count; workers that
// die mid-fit have their shards re-assigned to survivors. With
// -precision f32 the workers store float32 shards and answer every distance
// pass in single precision (bit-identical to the single-process float32 fit
// when every worker resolves the same float32 kernel tier).
//
// Elasticity and crash tolerance:
//
//	kmcoord -listen :9090 -min-workers 2 -manifest shards/manifest.json \
//	        -checkpoint ckpt/ -k 20 -out model.kmm
//	kmworker -join coordhost:9090 -data-dir shards   # any number, any time
//
// -listen accepts kmworker -join connections before and during the fit:
// joiners are admitted at the next round barrier and steal shards from the
// most loaded owner. -checkpoint persists the coordinator's state after
// every sampling round and periodically between Lloyd iterations; if the
// coordinator is killed, rerunning the same command with -resume continues
// from the last checkpoint and produces the same bits an uninterrupted run
// would have. Transient RPC faults are absorbed by -retries attempts with
// jittered exponential backoff before a worker is declared dead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kmeansll"
	"kmeansll/internal/core"
	"kmeansll/internal/data"
	"kmeansll/internal/distkm"
	"kmeansll/internal/dsio"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
)

func main() {
	var (
		workers  = flag.String("workers", "", "comma-separated kmworker addresses (required)")
		dataPath = flag.String("data", "", "dataset to fit: CSV, .kmd, or a shard manifest (mutually exclusive with -gen-*)")
		manifest = flag.String("manifest", "", "shard manifest for the pull path: workers mmap their shards from their own -data-dir instead of receiving points")
		genN     = flag.Int("gen-n", 0, "generate a Gaussian mixture with this many points")
		genD     = flag.Int("gen-d", 15, "generated dimensionality")
		genK     = flag.Int("gen-k", 20, "generated mixture components")
		k        = flag.Int("k", 10, "clusters to fit")
		ell      = flag.Float64("l", 0, "oversampling factor ℓ (0 = 2k)")
		rounds   = flag.Int("rounds", 0, "sampling rounds (0 = auto)")
		maxIter  = flag.Int("max-iter", 0, "Lloyd iteration cap (0 = lloyd.DefaultMaxIter, 1000, as in kmserved, kmcluster and the library)")
		seedVal  = flag.Uint64("seed", 1, "run seed")
		precStr  = flag.String("precision", "", `distance arithmetic: "f64" (default) or "f32" — workers store float32 shards and run the float32 kernels; requires a homogeneous kernel tier across the fleet for reproducible bits`)
		out      = flag.String("out", "", "write the fitted model here (kmeansll text format)")
		timeout  = flag.Duration("dial-timeout", 5*time.Second, "per-worker dial timeout")

		listen     = flag.String("listen", "", "accept kmworker -join connections on this address, before and during the fit")
		minWorkers = flag.Int("min-workers", 0, "with -listen: wait for this many workers (dialed + joined) before fitting")
		joinWait   = flag.Duration("join-wait", 5*time.Minute, "with -min-workers: how long to wait for the cluster to assemble")
		ckptDir    = flag.String("checkpoint", "", "persist coordinator state to this directory after each sampling round and every few Lloyd iterations")
		resume     = flag.Bool("resume", false, "continue from the checkpoint in -checkpoint if one exists (fresh fit otherwise)")
		retries    = flag.Int("retries", 0, "attempts per shard RPC before declaring a worker dead and failing over (0 = 3)")
	)
	flag.Parse()

	if *workers == "" && *listen == "" {
		fail("kmcoord: need workers: -workers addr,... and/or -listen :port for kmworker -join")
	}
	if *resume && *ckptDir == "" {
		fail("kmcoord: -resume requires -checkpoint")
	}
	if *manifest != "" && (*dataPath != "" || *genN > 0) {
		fail("kmcoord: -manifest is mutually exclusive with -data and -gen-n")
	}
	prec, perr := kmeansll.ParsePrecision(*precStr)
	if perr != nil {
		fail("kmcoord: %v", perr)
	}
	var (
		ds  *geom.Dataset
		man *dsio.Manifest
		err error
	)
	if *manifest != "" {
		man, err = dsio.LoadManifest(*manifest)
	} else {
		ds, err = loadDataset(*dataPath, *genN, *genD, *genK, *seedVal)
	}
	if err != nil {
		fail("kmcoord: %v", err)
	}

	var clients []distkm.Client
	for _, addr := range strings.Split(*workers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		cl, err := distkm.Dial(addr, *timeout)
		if err != nil {
			fail("kmcoord: dialing %s: %v", addr, err)
		}
		clients = append(clients, cl)
	}

	var acceptor *distkm.JoinAcceptor
	if *listen != "" {
		acceptor, err = distkm.ListenJoins(*listen, 0)
		if err != nil {
			fail("kmcoord: %v", err)
		}
		defer acceptor.Close()
		fmt.Fprintf(os.Stderr, "kmcoord: accepting worker joins on %s\n", acceptor.Addr())
		assembleBy := time.Now().Add(*joinWait)
		for len(clients) < *minWorkers {
			cl, err := acceptor.Next(time.Until(assembleBy))
			if err != nil {
				fail("kmcoord: %d of %d workers after %s: %v", len(clients), *minWorkers, *joinWait, err)
			}
			clients = append(clients, cl)
			fmt.Fprintf(os.Stderr, "kmcoord: worker joined (%d/%d)\n", len(clients), *minWorkers)
		}
	}

	coord, err := distkm.NewCoordinator(clients)
	if err != nil {
		fail("kmcoord: %v", err)
	}
	defer coord.Close()
	if acceptor != nil {
		// Workers joining from here on enter the running fit at the next
		// round barrier and steal shards from the most loaded owner.
		acceptor.Feed(coord)
	}
	coord.SetRetryPolicy(distkm.RetryPolicy{Attempts: *retries})
	if prec == kmeansll.Float32 {
		coord.SetFloat32(true)
	}
	if *ckptDir != "" {
		coord.SetCheckpointer(&distkm.Checkpointer{Dir: *ckptDir})
	}

	start := time.Now()
	if man != nil {
		if err := coord.DistributeManifest(man); err != nil {
			fail("kmcoord: distributing manifest %s across %d workers: %v", *manifest, len(clients), err)
		}
		fmt.Fprintf(os.Stderr, "kmcoord: %d points × %d dims pulled from %d part files over %d shards on %d workers (%s)\n",
			man.Rows, man.Cols, len(man.Shards), coord.Shards(), coord.Workers(), time.Since(start).Round(time.Millisecond))
	} else {
		if err := coord.Distribute(ds); err != nil {
			fail("kmcoord: distributing %d points across %d workers: %v", ds.N(), len(clients), err)
		}
		fmt.Fprintf(os.Stderr, "kmcoord: %d points × %d dims over %d shards on %d workers (%s)\n",
			ds.N(), ds.Dim(), coord.Shards(), coord.Workers(), time.Since(start).Round(time.Millisecond))
	}

	cfg := core.Config{K: *k, L: *ell, Rounds: *rounds, Seed: *seedVal}
	var (
		res   lloyd.Result
		stats distkm.Stats
	)
	if *resume && distkm.HasCheckpoint(*ckptDir) {
		fmt.Fprintf(os.Stderr, "kmcoord: resuming from checkpoint in %s\n", *ckptDir)
		_, res, stats, err = coord.ResumeFit(cfg, *maxIter)
	} else {
		if *resume {
			fmt.Fprintf(os.Stderr, "kmcoord: no checkpoint in %s; starting fresh\n", *ckptDir)
		}
		_, res, stats, err = coord.Fit(cfg, *maxIter)
	}
	if err != nil {
		fail("kmcoord: fit: %v", err)
	}
	fmt.Fprintf(os.Stderr,
		"kmcoord: k-means|| sampled %d candidates, seed cost %.6g; Lloyd ran %d iters to cost %.6g (converged=%v)\n",
		stats.Candidates, stats.SeedCost, res.Iters, res.Cost, res.Converged)
	snap := coord.Snapshot()
	fmt.Fprintf(os.Stderr, "kmcoord: %d RPC rounds, %d shard calls, %d retries, %d failovers, %d joins, total %s\n",
		stats.RPCRounds, stats.Calls, stats.Retries, stats.Failovers, snap.Joins, time.Since(start).Round(time.Millisecond))

	if *out != "" {
		model, err := distkm.Model(res, stats)
		if err != nil {
			fail("kmcoord: %v", err)
		}
		if prec == kmeansll.Float32 {
			model.MarkFitPrecision(kmeansll.Float32)
		}
		if err := model.SaveFile(*out); err != nil {
			fail("kmcoord: saving model: %v", err)
		}
		fmt.Fprintf(os.Stderr, "kmcoord: wrote %s\n", *out)
	}
	if *ckptDir != "" {
		// The fit is done and its model written; a stale checkpoint would
		// make a future -resume continue a finished run.
		if err := distkm.RemoveCheckpoint(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "kmcoord: removing checkpoint: %v\n", err)
		}
	}
}

func loadDataset(path string, genN, genD, genK int, seed uint64) (*geom.Dataset, error) {
	switch {
	case path != "" && genN > 0:
		return nil, fmt.Errorf("give either -data or -gen-n, not both")
	case path != "":
		// The closer is dropped deliberately: the mapping (if any) must live
		// until the fit finishes, i.e. for the process lifetime.
		ds, _, err := data.Load(path)
		return ds, err
	case genN > 0:
		ds, _ := data.GaussMixture(data.GaussMixtureConfig{N: genN, D: genD, K: genK, R: 10, Seed: seed})
		return ds, nil
	default:
		return nil, fmt.Errorf("need a dataset: -data points.csv, points.kmd or a manifest, or -gen-n N")
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
