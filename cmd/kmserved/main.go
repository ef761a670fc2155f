// Command kmserved serves kmeansll models over HTTP: a versioned model
// registry, parallel batch prediction, async fit jobs and online streaming
// ingest, with per-endpoint stats at /v1/sys/endpoints.
//
// Usage:
//
//	kmserved -addr :8080 -model-dir ./models
//
// Quick tour (see the README for the full walk-through):
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/fit -d '{"model":"demo","generate":{"n":10000,"d":15,"k":20},"config":{"k":20}}'
//	curl -s -X POST localhost:8080/v1/fit -d '{"model":"fast","generate":{"n":10000,"d":15,"k":20},"config":{"k":20,"optimizer":{"type":"minibatch"}}}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -s -X POST localhost:8080/v1/models/demo/predict -d '{"points":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]}'
//	curl -s localhost:8080/v1/sys/endpoints
//
// On SIGINT/SIGTERM the server drains in-flight requests, waits for running
// fit jobs, and (with -model-dir) persists the current model versions so a
// restart serves the same registry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kmeansll/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		modelDir    = flag.String("model-dir", "", "directory to load models from at boot and save them to on shutdown")
		parallelism = flag.Int("parallelism", 0, "per-request and per-fit worker goroutines (0 = all CPUs)")
		fitWorkers  = flag.Int("fit-workers", 2, "concurrent fit jobs")
		queueDepth  = flag.Int("fit-queue", 16, "queued fit jobs before 503")
		maxBody     = flag.Int64("max-body", 32<<20, "request body cap in bytes")
		maxPoints   = flag.Int("max-points", 1_000_000, "points per request cap")
		history     = flag.Int("history", server.DefaultMaxHistory, "retained versions per model")
		maxInflight = flag.Int("max-inflight", server.DefaultMaxInflight, "concurrent predict/transform requests before shedding with 503 + Retry-After (-1 = unlimited)")
		drainSecs   = flag.Int("drain", 30, "graceful shutdown timeout in seconds")
		distWorkers = flag.String("dist-workers", "", "comma-separated kmworker addresses for backend=dist fit jobs (empty = in-process loopback cluster)")
		dataDir     = flag.String("data-dir", "", "root for path-based fit jobs: requests may name .kmd datasets / shard manifests relative to this dir (empty disables dataset paths)")
	)
	flag.Parse()

	var distAddrs []string
	for _, addr := range strings.Split(*distWorkers, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			distAddrs = append(distAddrs, addr)
		}
	}

	logger := log.New(os.Stderr, "kmserved: ", log.LstdFlags)
	jobsDir := ""
	if *modelDir != "" {
		jobsDir = filepath.Join(*modelDir, "jobs")
	}
	srv := server.New(server.Config{
		Parallelism:     *parallelism,
		FitWorkers:      *fitWorkers,
		FitQueueDepth:   *queueDepth,
		MaxRequestBytes: *maxBody,
		MaxBatchPoints:  *maxPoints,
		MaxHistory:      *history,
		MaxInflight:     *maxInflight,
		DistWorkers:     distAddrs,
		DataDir:         *dataDir,
		JobsDir:         jobsDir,
		Logf:            logger.Printf,
	})

	if *modelDir != "" {
		n, err := srv.Registry().LoadDir(*modelDir)
		if err != nil {
			logger.Fatalf("loading models from %s: %v", *modelDir, err)
		}
		logger.Printf("loaded %d model(s) from %s", n, *modelDir)
		requeued, failed, err := srv.RecoverJobs()
		if err != nil {
			logger.Printf("recovering jobs from %s: %v", jobsDir, err)
		} else if requeued+failed > 0 {
			logger.Printf("recovered jobs from %s: %d requeued, %d failed as interrupted", jobsDir, requeued, failed)
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe(*addr) }()
	logger.Printf("listening on %s", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("received %s, draining (up to %ds)", sig, *drainSecs)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		if *modelDir != "" {
			if err := srv.Registry().SaveDir(*modelDir); err != nil {
				logger.Printf("saving models to %s: %v", *modelDir, err)
			} else {
				logger.Printf("saved registry to %s", *modelDir)
			}
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "kmserved: %v\n", err)
			os.Exit(1)
		}
	}
}
