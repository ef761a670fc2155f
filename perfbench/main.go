// Command perfbench is kmeansll's end-to-end benchmark. It boots the kmserved
// HTTP server in-process on a real loopback listener, drives one workload
// for a fixed time, checks every answer the server gives, and prints one
// JSON result line:
//
//	perfbench --workload serve-bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// slower, sequential run attributes each operation's time to the layers it
// crosses (see layers.go). README.md describes the workloads and metrics;
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workload is one set of inputs. Every workload runs both of kmserved's
// paths — it fits the model it predicts with — but measures one of them:
// serve-* workloads time predict requests against a model fitted during
// set-up, fit-* workloads time fit jobs and check each with a predict.
type workload struct {
	serve   bool // the measured op is a predict request, not a fit job
	data    dataShape
	fit     fitShape
	predict predictShape
}

// workloads is the benchmark's workload table; BENCHMARK.json records why
// each exists.
var workloads = map[string]workload{
	// 58 dims is the paper's KDD Cup shape; a 512-point JSON body is ~600 KB,
	// so the request is parse-bound and the linear-scan kernel is small.
	// (2048-point bodies allocate so much per request that whether a request
	// overlaps a collection decides its latency, and the median flips
	// between the two cases from run to run.)
	"serve-bulk": {
		serve:   true,
		data:    dataShape{train: 8192, gen: mixture(58, 32, 3)},
		fit:     fitShape{k: 32, maxIter: 10, backend: "local"},
		predict: predictShape{batch: 512, bodies: 4},
	},
	// Colour quantization: integer RGB pixels against a 256-colour palette.
	// k ≥ 256 at dim ≤ 4 is the kd-tree predict regime, and short integer
	// tokens keep the body small, so the kernel's share of a request is the
	// largest of any workload.
	"serve-quantize": {
		serve:   true,
		data:    dataShape{train: 16384, gen: pixels(64, 12)},
		fit:     fitShape{k: 256, maxIter: 10, backend: "local"},
		predict: predictShape{batch: 4096, bodies: 8},
	},
	// The same .kmd fit on the in-process engine and on a loopback cluster,
	// so the pair isolates what distribution (gob, RPC, per-round reduce)
	// costs. Overlapping clusters keep Lloyd at its iteration cap, so every
	// fit does the same work. Two workers, not the server's default four:
	// on a 2-CPU machine four oversubscribe it, and every round's barrier
	// then waits on scheduling, which made the dist fit's median swing with
	// the machine's load far more than the local fit's.
	"fit-local": {
		data:    dataShape{train: 10000, gen: mixture(16, 20, 1.5)},
		fit:     fitShape{k: 20, maxIter: 8, backend: "local"},
		predict: predictShape{batch: 256, bodies: 1},
	},
	"fit-dist": {
		data:    dataShape{train: 10000, gen: mixture(16, 20, 1.5)},
		fit:     fitShape{k: 20, maxIter: 8, backend: "dist", shards: 2},
		predict: predictShape{batch: 256, bodies: 1},
	},
}

// setUps is how many times a run builds its environment from scratch; the
// last one is measured, and setup_s is the median.
const setUps = 5

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (serve-bulk, serve-quantize, fit-local, fit-dist)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// Inputs and the server's data dir live under the checkout's build dir,
	// one directory per process, removed on exit.
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, dir, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// run sets the workload up setUps times, measures the last set-up for d,
// and assembles the result.
func run(w workload, dir string, seed uint64, d time.Duration, trace bool) (result, error) {
	in, err := prepare(w, dir, seed)
	if err != nil {
		return result{}, err
	}
	var (
		e      *env
		setups []float64
		tr     = newTracer(trace)
	)
	for i := 0; i < setUps; i++ {
		if e != nil {
			e.close()
		}
		tr.settle()
		start := time.Now()
		e, err = setUp(w, in, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	ck, err := newChecker(w, in, e)
	if err != nil {
		return result{}, fmt.Errorf("checking set-up: %w", err)
	}
	if trace && w.serve {
		// The fit path of a serve workload is the set-up fit: replay its
		// layers as often as it ran.
		for i := 0; i < setUps; i++ {
			if err := tr.replayFit(w, in, in.fitSeeds[0], ck.refs[in.fitSeeds[0]].Cost); err != nil {
				return result{}, err
			}
		}
	}

	var m measurement
	if w.serve {
		m = measureServe(in, e, ck, tr, d)
	} else {
		m = measureFit(w, in, e, ck, tr, d)
	}
	res := result{
		Correct:   m.failed == 0 && m.ok > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
	}
	if m.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", m.firstErr)
	}
	if trace {
		res.Metrics = tr.metrics()
		return res, nil
	}
	// On a shared host a CPU can run up to 1.7× slower for a second or so
	// at a time, and bursts of other tenants' work stall a few ops
	// outright. A run's mean, or a tail percentile, depends on how many of
	// those it caught; the median and the 75th percentile stay inside the
	// body of the distribution, and p75 still moves when a quarter of the
	// ops slow down (say, more of them overlapping a collection).
	res.Metrics = map[string]metric{
		"latency_p50_ms": {quantile(m.latMs, 0.50), "ms"},
		"latency_p75_ms": {quantile(m.latMs, 0.75), "ms"},
		"setup_s":        {quantile(setups, 0.50), "s"},
	}
	return res, nil
}

// quantile is the q-quantile of xs with linear interpolation; 0 when xs is
// empty (the run then reports itself incorrect).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
