package server

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistBucketRoundTrip pins the bucket math: every value must land in a
// bucket whose [low, next-low) range contains it, and bucket lows must be
// strictly increasing.
func TestHistBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 12345,
		1e6, 1e9, math.MaxInt64 - 1, math.MaxInt64}
	for _, v := range values {
		i := histBucket(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, i)
		}
		lo, hi := histBucketLow(i), histBucketLow(i+1)
		if v < lo || (hi != math.MaxInt64 && v >= hi) {
			t.Errorf("value %d landed in bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
	for i := 1; i < histBuckets; i++ {
		if histBucketLow(i) <= histBucketLow(i-1) {
			t.Fatalf("bucket lows not increasing at %d: %d then %d",
				i, histBucketLow(i-1), histBucketLow(i))
		}
	}
	if histBucket(-5) != 0 {
		t.Errorf("negative latency should clamp to bucket 0")
	}
}

// TestHistogramQuantileAccuracy fills the histogram from a known distribution
// and checks the estimated quantiles against the exact ones. The log-linear
// buckets guarantee ≤ 1/histSub relative width, so the midpoint estimate must
// sit within ~15% of truth.
func TestHistogramQuantileAccuracy(t *testing.T) {
	const n = 200_000
	r := rand.New(rand.NewSource(42))
	var h latencyHist
	exact := make([]int64, n)
	var maxV int64
	for i := range exact {
		// Log-uniform latencies from ~1µs to ~1s: exercises many octaves.
		v := int64(math.Exp(r.Float64()*math.Log(1e9/1e3)) * 1e3)
		exact[i] = v
		h.observe(v)
		if v > maxV {
			maxV = v
		}
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })

	qs := []float64{0.50, 0.90, 0.99}
	got := h.quantiles(maxV, qs...)
	for i, q := range qs {
		want := float64(exact[int(q*float64(n-1))])
		rel := math.Abs(got[i]-want) / want
		if rel > 0.15 {
			t.Errorf("q%.0f: estimate %.0f vs exact %.0f (%.1f%% off, want ≤15%%)",
				q*100, got[i], want, rel*100)
		}
	}
	if got[2] > float64(maxV) {
		t.Errorf("p99 %.0f exceeds exact max %d", got[2], maxV)
	}

	var empty latencyHist
	if out := empty.quantiles(0, 0.5, 0.99); out[0] != 0 || out[1] != 0 {
		t.Errorf("empty histogram quantiles = %v, want zeros", out)
	}
}

// TestStatsConcurrentObserve hammers one row from many goroutines while
// snapshots run — the counters are lock-free, so under -race this is the
// memory-safety proof, and afterwards the totals must be exact (no lost
// updates on requests/errors/max).
func TestStatsConcurrentObserve(t *testing.T) {
	table := newStatsTable()
	const workers = 8
	const perWorker = 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := table.row("POST /bench")
			for i := 0; i < perWorker; i++ {
				st := http.StatusOK
				if i%10 == 0 {
					st = http.StatusBadRequest
				}
				row.observe(time.Duration(i+w)*time.Microsecond, st)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				table.snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)

	rows := table.snapshot()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", r.Requests, workers*perWorker)
	}
	if wantErr := int64(workers * perWorker / 10); r.Errors != wantErr {
		t.Errorf("errors = %d, want %d", r.Errors, wantErr)
	}
	wantMax := float64((perWorker-1)+(workers-1)) / 1e3 // µs → ms
	if r.MaxMillis != wantMax {
		t.Errorf("max = %vms, want %vms", r.MaxMillis, wantMax)
	}
	if !(r.P50Millis <= r.P90Millis && r.P90Millis <= r.P99Millis && r.P99Millis <= r.MaxMillis) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v max=%v",
			r.P50Millis, r.P90Millis, r.P99Millis, r.MaxMillis)
	}
}

// TestStatsSnapshotSorted verifies /v1/sys/endpoints row order is deterministic:
// sorted by endpoint key regardless of observation order.
func TestStatsSnapshotSorted(t *testing.T) {
	table := newStatsTable()
	for _, name := range []string{"POST /z", "GET /a", "GET /m", "DELETE /a"} {
		table.row(name).observe(time.Millisecond, http.StatusOK)
	}
	for try := 0; try < 3; try++ {
		rows := table.snapshot()
		if !sort.SliceIsSorted(rows, func(i, j int) bool {
			return rows[i].Endpoint < rows[j].Endpoint
		}) {
			t.Fatalf("snapshot not sorted: %+v", rows)
		}
	}
}

// TestQPSRingWindow pins the windowing: events stamped outside the 60s window
// are excluded from the sum, events inside are counted.
func TestQPSRingWindow(t *testing.T) {
	var r qpsRing
	now := int64(1_000_000)
	r.observe(now)
	r.observe(now)
	r.observe(now - qpsWindow)     // just outside (exclusive bound)
	r.observe(now - qpsWindow + 1) // just inside
	if got := r.sum(now); got != 3 {
		t.Errorf("sum = %d, want 3 (2 now + 1 at window edge)", got)
	}
	// A minute later everything has aged out.
	if got := r.sum(now + 2*qpsWindow); got != 0 {
		t.Errorf("sum after window = %d, want 0", got)
	}
}

// flushRecorder wraps httptest.ResponseRecorder to count Flush calls.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// TestStatusRecorderTransparency verifies the middleware wrapper forwards the
// optional interfaces handlers rely on: Flush reaches the underlying writer
// and Unwrap exposes it to http.ResponseController.
func TestStatusRecorderTransparency(t *testing.T) {
	under := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: under}

	http.NewResponseController(rec).Flush()
	if under.flushes == 0 {
		t.Errorf("Flush did not reach the underlying writer")
	}
	if rec.Unwrap() != http.ResponseWriter(under) {
		t.Errorf("Unwrap did not return the underlying writer")
	}

	// A plain writer without Flush must not panic.
	plain := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	plain.Flush()
}

// TestRetryAfterSeconds pins the admission gate's backoff hint: the recent
// p90 rounded up to whole seconds and clamped to [1, 30], with shed responses
// excluded so overload cannot talk the hint down to nothing.
func TestRetryAfterSeconds(t *testing.T) {
	var c endpointCounters
	if got := c.retryAfterSeconds(); got != 1 {
		t.Fatalf("empty row advises %d, want the 1s floor", got)
	}

	for i := 0; i < 20; i++ {
		c.observe(100*time.Millisecond, http.StatusOK)
	}
	if got := c.retryAfterSeconds(); got != 1 {
		t.Fatalf("100ms p90 advises %d, want 1 (clamped up)", got)
	}

	// Shift the p90 to ~5s. Histogram buckets are ≤25% wide, so the midpoint
	// estimate stays within [5, 6] after ceil.
	for i := 0; i < 200; i++ {
		c.observe(5*time.Second, http.StatusOK)
	}
	if got := c.retryAfterSeconds(); got < 5 || got > 6 {
		t.Fatalf("5s p90 advises %d, want 5..6", got)
	}

	// A flood of (sub-millisecond) sheds must not dilute the estimate.
	for i := 0; i < 10_000; i++ {
		c.observe(50*time.Microsecond, http.StatusServiceUnavailable)
	}
	if got := c.retryAfterSeconds(); got < 5 || got > 6 {
		t.Fatalf("p90 after a shed flood advises %d, want 5..6", got)
	}

	var slow endpointCounters
	for i := 0; i < 10; i++ {
		slow.observe(100*time.Second, http.StatusOK)
	}
	if got := slow.retryAfterSeconds(); got != 30 {
		t.Fatalf("pathological endpoint advises %d, want the 30s cap", got)
	}
}
