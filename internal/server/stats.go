package server

import (
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ---- log-bucketed latency histogram --------------------------------------
//
// Latencies are recorded into a fixed array of atomic counters whose bucket
// boundaries grow log-linearly (HDR-histogram style): each power-of-two
// octave of nanoseconds is split into histSub equal sub-buckets, so the
// relative width of any bucket is at most 1/histSub of its value (25% at
// histSub=4, i.e. quantile estimates carry ≤ ~12.5% error from the bucket
// midpoint). Recording is one array index plus one atomic add: no locks, no
// allocation, safe from any number of goroutines. 248 buckets cover the full
// int64 nanosecond range.

const (
	histSubBits = 2 // log2 of sub-buckets per octave
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// histBucket maps a latency in nanoseconds to its bucket index. Values below
// 2·histSub map exactly (index = value); above, the index is log-linear with
// worst-case relative bucket width 1/histSub.
func histBucket(n int64) int {
	if n < 0 {
		n = 0
	}
	v := uint64(n)
	if v < histSub {
		return int(v)
	}
	o := bits.Len64(v) // v ∈ [2^(o-1), 2^o)
	shift := uint(o - 1 - histSubBits)
	return int(o-histSubBits)<<histSubBits | int((v>>shift)&(histSub-1))
}

// histBucketLow is histBucket's inverse: the smallest nanosecond value that
// lands in bucket i (and therefore the exclusive upper bound of bucket i-1).
func histBucketLow(i int) int64 {
	if i >= histBuckets {
		return math.MaxInt64
	}
	if i < histSub*2 {
		return int64(i)
	}
	o := i>>histSubBits + histSubBits
	sub := int64(i & (histSub - 1))
	shift := uint(o - 1 - histSubBits)
	return (histSub + sub) << shift
}

// latencyHist is the lock-free histogram itself.
type latencyHist struct {
	counts [histBuckets]atomic.Int64
}

func (h *latencyHist) observe(nanos int64) {
	h.counts[histBucket(nanos)].Add(1)
}

// quantiles estimates the given ascending quantiles in one pass over the
// buckets. Each estimate is the midpoint of the bucket holding that rank,
// clamped to maxNanos (the exact observed maximum), so p99 can never exceed
// max. With no observations all estimates are 0.
func (h *latencyHist) quantiles(maxNanos int64, qs ...float64) []float64 {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	var cum int64
	qi := 0
	for i := 0; i < histBuckets && qi < len(qs); i++ {
		if counts[i] == 0 {
			continue
		}
		cum += counts[i]
		for qi < len(qs) && float64(cum) >= qs[qi]*float64(total) {
			mid := (histBucketLow(i) + histBucketLow(i+1)) / 2
			if mid > maxNanos && maxNanos > 0 {
				mid = maxNanos
			}
			out[qi] = float64(mid)
			qi++
		}
	}
	return out
}

// ---- windowed QPS ring ---------------------------------------------------
//
// Lifetime-average QPS is misleading after hours of uptime, so throughput is
// tracked in a ring of per-second counters: slot (second mod qpsSlots) holds
// the count for that second, lazily reset when the ring wraps onto a stale
// second. Readers sum the slots stamped within the last qpsWindow seconds.
// The reset races by design (two writers crossing a second boundary can drop
// a handful of events); the table is diagnostic, not billing.

const (
	qpsSlots  = 64 // ring capacity; must exceed qpsWindow
	qpsWindow = 60 // seconds a snapshot sums over
)

type qpsRing struct {
	sec [qpsSlots]atomic.Int64 // unix second each slot currently holds
	cnt [qpsSlots]atomic.Int64
}

func (r *qpsRing) observe(now int64) {
	i := int(now % qpsSlots)
	if s := r.sec[i].Load(); s != now {
		if r.sec[i].CompareAndSwap(s, now) {
			r.cnt[i].Store(0)
		}
	}
	r.cnt[i].Add(1)
}

// sum returns the number of events stamped within (now-qpsWindow, now].
func (r *qpsRing) sum(now int64) int64 {
	var total int64
	for i := 0; i < qpsSlots; i++ {
		if s := r.sec[i].Load(); s > now-qpsWindow && s <= now {
			total += r.cnt[i].Load()
		}
	}
	return total
}

// ---- per-endpoint counters ----------------------------------------------

// endpointCounters is one row of the stats table, updated lock-free on the
// request path.
type endpointCounters struct {
	requests atomic.Int64
	errors   atomic.Int64 // responses with status ≥ 400 (sheds included)
	sheds    atomic.Int64 // 503s from the admission gate, a subset of errors
	maxNanos atomic.Int64
	hist     latencyHist
	ring     qpsRing

	// recent is a tumbling per-minute histogram feeding retryAfterSeconds:
	// the admission gate's Retry-After should track what the endpoint costs
	// *now*, not its lifetime average. 503s are excluded — under overload
	// they are the bulk of the traffic and their microsecond latencies would
	// drag the quantile (and thus the advised backoff) to nothing.
	recentMin atomic.Int64 // unix minute `recent` currently covers
	recent    latencyHist
}

// observe records one finished request.
func (c *endpointCounters) observe(d time.Duration, status int) {
	c.requests.Add(1)
	if status >= 400 {
		c.errors.Add(1)
	}
	n := d.Nanoseconds()
	c.hist.observe(n)
	if status != http.StatusServiceUnavailable {
		c.observeRecent(n, time.Now().Unix()/60)
	}
	c.ring.observe(time.Now().Unix())
	for {
		cur := c.maxNanos.Load()
		if n <= cur || c.maxNanos.CompareAndSwap(cur, n) {
			break
		}
	}
}

// observeRecent rotates the tumbling window onto the current minute, then
// records. The reset races with concurrent writers by design (a handful of
// observations may land in a freshly-zeroed window or be lost); the window
// feeds an advisory backoff hint, not accounting.
func (c *endpointCounters) observeRecent(nanos, minute int64) {
	if m := c.recentMin.Load(); m != minute {
		if c.recentMin.CompareAndSwap(m, minute) {
			for i := range c.recent.counts {
				c.recent.counts[i].Store(0)
			}
		}
	}
	c.recent.observe(nanos)
}

// retryAfterSeconds derives the Retry-After an admission shed should carry:
// the endpoint's recent p90 latency rounded up to whole seconds, clamped to
// [1, 30]. A slot opens when an in-flight request finishes, so its p90 is a
// defensible estimate of when retrying becomes worthwhile; the clamp keeps
// the hint sane when the window is empty (1) or the endpoint is pathological
// (30).
func (c *endpointCounters) retryAfterSeconds() int {
	maxN := c.maxNanos.Load()
	p90 := c.recent.quantiles(maxN, 0.90)[0]
	if p90 == 0 {
		// Nothing served this minute (e.g. right after a rotation): fall back
		// to the lifetime histogram.
		p90 = c.hist.quantiles(maxN, 0.90)[0]
	}
	secs := int(math.Ceil(p90 / 1e9))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}

// statsTable aggregates per-endpoint request counters, in the spirit of the
// V$ virtual tables of production data servers: every registered route gets
// a row, and GET /v1/sys/endpoints renders the table. Rows are
// created at route registration time, so the request path is a map read plus
// atomic updates.
type statsTable struct {
	start time.Time
	mu    sync.RWMutex
	rows  map[string]*endpointCounters
}

func newStatsTable() *statsTable {
	return &statsTable{start: time.Now(), rows: make(map[string]*endpointCounters)}
}

// row returns (creating if needed) the counters for an endpoint key.
func (t *statsTable) row(endpoint string) *endpointCounters {
	t.mu.RLock()
	c := t.rows[endpoint]
	t.mu.RUnlock()
	if c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.rows[endpoint]; c == nil {
		c = &endpointCounters{}
		t.rows[endpoint] = c
	}
	return c
}

// EndpointStats is one rendered row of the stats table. QPS is windowed over
// the last qpsWindow seconds (not lifetime-averaged); the latency quantiles
// come from the log-bucketed histogram, max is exact.
type EndpointStats struct {
	Endpoint  string  `json:"endpoint"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Sheds     int64   `json:"sheds,omitempty"`
	QPS       float64 `json:"qps"`
	P50Millis float64 `json:"p50_ms"`
	P90Millis float64 `json:"p90_ms"`
	P99Millis float64 `json:"p99_ms"`
	MaxMillis float64 `json:"max_ms"`
}

// snapshot renders the table, rows sorted by endpoint key so the JSON output
// is deterministic per request.
func (t *statsTable) snapshot() []EndpointStats {
	now := time.Now()
	// Early in the process's life the 60s window has not filled yet; divide
	// by the elapsed uptime instead so QPS is meaningful from the first
	// request.
	window := now.Sub(t.start).Seconds()
	if window > qpsWindow {
		window = qpsWindow
	}
	if window < 1 {
		window = 1
	}

	t.mu.RLock()
	names := make([]string, 0, len(t.rows))
	for name := range t.rows {
		names = append(names, name)
	}
	rows := make([]*endpointCounters, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		rows = append(rows, t.rows[name])
	}
	t.mu.RUnlock()

	out := make([]EndpointStats, len(names))
	for i, c := range rows {
		maxN := c.maxNanos.Load()
		q := c.hist.quantiles(maxN, 0.50, 0.90, 0.99)
		out[i] = EndpointStats{
			Endpoint:  names[i],
			Requests:  c.requests.Load(),
			Errors:    c.errors.Load(),
			Sheds:     c.sheds.Load(),
			QPS:       float64(c.ring.sum(now.Unix())) / window,
			P50Millis: q[0] / 1e6,
			P90Millis: q[1] / 1e6,
			P99Millis: q[2] / 1e6,
			MaxMillis: float64(maxN) / 1e6,
		}
	}
	return out
}

// statusRecorder captures the response status for the stats middleware while
// staying transparent to the wrapped handler: Flush is forwarded so
// instrumented handlers can stream, and Unwrap lets http.ResponseController
// reach every other optional interface of the underlying writer.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController's interface discovery.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with latency/QPS accounting under the given
// endpoint key (normally the mux pattern, so path parameters collapse into
// one row).
func (t *statsTable) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	row := t.row(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		begin := time.Now()
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		row.observe(time.Since(begin), rec.status)
	}
}
