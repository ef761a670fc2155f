package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kmeansll"
	"kmeansll/internal/core"
	"kmeansll/internal/data"
	"kmeansll/internal/distkm"
	"kmeansll/internal/lloyd"
)

// Layer attribution works from the outside in: after each measured op, a
// traced run calls successively inner entry points of the program with the
// same input, and a layer's time is the difference between the call that
// includes it and the call that does not.
//
// Predict: the HTTP round trip; the same request served in-process with no
// socket (wire = round trip − handler); a twin body the handler decodes in
// full and then rejects in validation (decode); and the handler's own
// Model.PredictBatchInto call (kernel). What the handler spends beyond
// decode and kernel — response encoding, routing, admission, stats — is
// encode.
//
// Fit: the job's queued/started/finished times from its status (wire = the
// client's submit-to-done minus the job's lifetime; queue; job), then the
// job's pipeline replayed step by step: load (open/mmap and validate the
// .kmd, plus starting the loopback cluster and pushing the shards on the
// dist backend), seed (k-means|| rounds, Step 7 weighting and Step 8
// reclustering) and lloyd. Each replay must reproduce the served fit's
// cost, so the layers describe the work the job did.

// Every timed call in a traced run starts right after a forced collection
// (tracer.settle), so one call's garbage is not collected on another's
// time; what each call allocates is reported separately (alloc_kib).

// layerMetrics lists every per-layer metric with its unit; a traced run
// reports the median of each over its samples.
var layerMetrics = []struct{ name, unit string }{
	{"predict.wire_ms", "ms"},
	{"predict.handler_ms", "ms"},
	{"predict.decode_ms", "ms"},
	{"predict.kernel_ms", "ms"},
	{"predict.encode_ms", "ms"},
	{"predict.alloc_kib", "KiB"},
	{"fit.wire_ms", "ms"},
	{"fit.queue_ms", "ms"},
	{"fit.job_ms", "ms"},
	{"fit.load_ms", "ms"},
	{"fit.seed_ms", "ms"},
	{"fit.lloyd_ms", "ms"},
	{"fit.alloc_kib", "KiB"},
	{"fit.candidates", "count"},
	{"fit.lloyd_iters", "count"},
	{"fit.rpc_calls", "count"},
}

// tracer collects per-layer samples; with on false every method is a
// no-op, so untraced runs pay nothing.
type tracer struct {
	on      bool
	samples map[string][]float64
}

func newTracer(on bool) *tracer { return &tracer{on: on, samples: map[string][]float64{}} }

func (t *tracer) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// settle runs a garbage collection before a timed call of a traced run.
func (t *tracer) settle() {
	if t.on {
		runtime.GC()
	}
}

// metrics is the median of every layer metric.
func (t *tracer) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, l := range layerMetrics {
		out[l.name] = metric{quantile(t.samples[l.name], 0.5), l.unit}
	}
	return out
}

// predict attributes one predict request whose HTTP round trip took rtt.
func (t *tracer) predict(e *env, path string, b *body, model *kmeansll.Model, rtt time.Duration) error {
	t.settle()
	handler, alloc, code := serveInProcess(e, path, b.json)
	if code != http.StatusOK {
		return fmt.Errorf("in-process predict: status %d", code)
	}
	t.settle()
	decode, _, code := serveInProcess(e, path, b.twin)
	if code != http.StatusBadRequest {
		return fmt.Errorf("in-process predict of a malformed body: status %d, want 400", code)
	}
	out := make([]int, len(b.points))
	t.settle()
	start := time.Now()
	model.PredictBatchInto(b.points, out, 0) // the server's default parallelism
	kernel := time.Since(start)
	t.add("predict.wire_ms", ms(rtt-handler))
	t.add("predict.handler_ms", ms(handler))
	t.add("predict.decode_ms", ms(decode))
	t.add("predict.kernel_ms", ms(kernel))
	t.add("predict.encode_ms", ms(handler-decode-kernel))
	t.add("predict.alloc_kib", float64(alloc)/1024)
	return nil
}

// serveInProcess runs one request through the server's handler without a
// socket, returning its duration, the bytes it allocated and its status.
func serveInProcess(e *env, path string, body []byte) (time.Duration, uint64, int) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	e.srv.ServeHTTP(rec, req)
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc, rec.Code
}

// fitSample records the job-level layers of one fit.
func (t *tracer) fitSample(s fitSample) {
	if !t.on {
		return
	}
	st := s.st
	t.add("fit.wire_ms", ms(s.client-st.FinishedAt.Sub(st.QueuedAt)))
	t.add("fit.queue_ms", ms(st.StartedAt.Sub(st.QueuedAt)))
	t.add("fit.job_ms", ms(st.FinishedAt.Sub(st.StartedAt)))
}

// fitLayers is one replayed fit.
type fitLayers struct {
	load, seed, lloyd time.Duration
	candidates, iters int
	rpcCalls          int64
	cost              float64
}

// replayFit replays the fit job for seed layer by layer; its cost must be
// want, the cost of the fit the server ran.
func (t *tracer) replayFit(w workload, in *inputs, seed uint64, want float64) error {
	path := filepath.Join(in.dir, trainFile)
	t.settle()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		l   fitLayers
		err error
	)
	if w.fit.backend == "dist" {
		l, err = replayDist(path, w.fit, seed)
	} else {
		l, err = replayLocal(path, w.fit, seed)
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("replay fit: %w", err)
	}
	if l.cost != want {
		// Not an error in the program: the served path changed and this
		// replay no longer mirrors it, so its layer split is suspect.
		fmt.Fprintf(os.Stderr, "perfbench: replayed fit cost %v, served fit %v: fit layers no longer mirror the job\n", l.cost, want)
	}
	t.add("fit.load_ms", ms(l.load))
	t.add("fit.seed_ms", ms(l.seed))
	t.add("fit.lloyd_ms", ms(l.lloyd))
	t.add("fit.alloc_kib", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	t.add("fit.candidates", float64(l.candidates))
	t.add("fit.lloyd_iters", float64(l.iters))
	t.add("fit.rpc_calls", float64(l.rpcCalls))
	return nil
}

// replayLocal is the local backend's job (JobManager.pathFit →
// kmeansll.ClusterDataset) one stage at a time.
func replayLocal(path string, f fitShape, seed uint64) (fitLayers, error) {
	var l fitLayers
	start := time.Now()
	ds, closer, err := data.Load(path)
	if err != nil {
		return l, err
	}
	defer closer.Close()
	if err := ds.Validate(); err != nil {
		return l, err
	}
	loaded := time.Now()
	centers, st := core.Init(ds, core.Config{K: f.k, L: 2 * float64(f.k), Seed: seed})
	seeded := time.Now()
	res := lloyd.Run(ds, centers, lloyd.Config{MaxIter: f.maxIter})
	done := time.Now()
	l.load, l.seed, l.lloyd = loaded.Sub(start), seeded.Sub(loaded), done.Sub(seeded)
	l.candidates, l.iters, l.cost = st.Candidates, res.Iters, res.Cost
	return l, nil
}

// replayDist is the dist backend's job (JobManager.distFit over a single
// .kmd: load, push shards to a loopback cluster, Coordinator.Fit) one stage
// at a time.
func replayDist(path string, f fitShape, seed uint64) (fitLayers, error) {
	var l fitLayers
	start := time.Now()
	ds, closer, err := data.Load(path)
	if err != nil {
		return l, err
	}
	defer closer.Close()
	if err := ds.Validate(); err != nil {
		return l, err
	}
	clients, cleanup := distkm.LoopbackCluster(f.shards)
	defer cleanup()
	coord, err := distkm.NewCoordinator(clients)
	if err != nil {
		return l, err
	}
	defer coord.Close()
	if err := coord.Distribute(ds); err != nil {
		return l, err
	}
	loaded := time.Now()
	centers, ist, err := coord.Init(core.Config{K: f.k, L: 2 * float64(f.k), Seed: seed})
	if err != nil {
		return l, err
	}
	seeded := time.Now()
	res, lst, err := coord.Lloyd(centers, f.maxIter)
	if err != nil {
		return l, err
	}
	done := time.Now()
	l.load, l.seed, l.lloyd = loaded.Sub(start), seeded.Sub(loaded), done.Sub(seeded)
	l.candidates, l.iters, l.cost = ist.Candidates, res.Iters, res.Cost
	l.rpcCalls = ist.Calls + lst.Calls
	return l, nil
}
