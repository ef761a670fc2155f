package distkm

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/mrkm"
	"kmeansll/internal/rng"
	"kmeansll/internal/seed"
)

func blobs(t testing.TB, k, m, dim int, sep float64, seedVal uint64) *geom.Dataset {
	t.Helper()
	r := rng.New(seedVal)
	truth := geom.NewMatrix(k, dim)
	for i := range truth.Data {
		truth.Data[i] = sep * r.NormFloat64()
	}
	x := geom.NewMatrix(k*m, dim)
	for c := 0; c < k; c++ {
		for i := 0; i < m; i++ {
			row := x.Row(c*m + i)
			for j := 0; j < dim; j++ {
				row[j] = truth.Row(c)[j] + r.NormFloat64()
			}
		}
	}
	return geom.NewDataset(x)
}

// loopbackCoordinator builds a coordinator over n in-process workers with the
// dataset already distributed.
func loopbackCoordinator(t *testing.T, ds *geom.Dataset, workers int) *Coordinator {
	t.Helper()
	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	return c
}

func requireBitIdentical(t *testing.T, what string, got, want *geom.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: flat index %d differs: %v vs %v (bits %x vs %x)",
				what, i, got.Data[i], want.Data[i],
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// The headline property: a fit over W networked shard workers is
// bit-identical to the single-process MapReduce realization with W mappers —
// every float crosses the wire through gob, every reduction happens in shard
// order.
func TestInitBitIdenticalToMRKM(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 1)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 7}

	wantCenters, wantStats := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})

	c := loopbackCoordinator(t, ds, workers)
	gotCenters, gotStats, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "Init centers", gotCenters, wantCenters)
	if gotStats.Candidates != wantStats.Candidates {
		t.Fatalf("candidates: %d vs %d", gotStats.Candidates, wantStats.Candidates)
	}
	if math.Float64bits(gotStats.Psi) != math.Float64bits(wantStats.Psi) {
		t.Fatalf("ψ differs: %v vs %v", gotStats.Psi, wantStats.Psi)
	}
	if len(gotStats.PhiTrace) != len(wantStats.PhiTrace) {
		t.Fatalf("φ trace lengths differ: %d vs %d", len(gotStats.PhiTrace), len(wantStats.PhiTrace))
	}
	for i := range wantStats.PhiTrace {
		if math.Float64bits(gotStats.PhiTrace[i]) != math.Float64bits(wantStats.PhiTrace[i]) {
			t.Fatalf("φ trace differs at %d: %v vs %v", i, gotStats.PhiTrace[i], wantStats.PhiTrace[i])
		}
	}
	if math.Float64bits(gotStats.SeedCost) != math.Float64bits(wantStats.SeedCost) {
		t.Fatalf("seed cost differs: %v vs %v", gotStats.SeedCost, wantStats.SeedCost)
	}
}

func TestLloydBitIdenticalToMRKM(t *testing.T) {
	const workers = 4
	ds := blobs(t, 4, 100, 5, 40, 9)
	init := seed.KMeansPP(ds, 4, rng.New(10), 0)

	wantRes, _ := mrkm.Lloyd(ds, init, 30, mrkm.Config{Mappers: workers})

	c := loopbackCoordinator(t, ds, workers)
	gotRes, gotStats, err := c.Lloyd(init, 30)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "Lloyd centers", gotRes.Centers, wantRes.Centers)
	// SeedCost is the seeding's cost; Lloyd does no seeding.
	if gotStats.SeedCost != 0 {
		t.Fatalf("Lloyd reported seed cost %v; its final cost belongs in Result.Cost", gotStats.SeedCost)
	}
	if gotRes.Iters != wantRes.Iters || gotRes.Converged != wantRes.Converged {
		t.Fatalf("iters/converged: %d/%v vs %d/%v",
			gotRes.Iters, gotRes.Converged, wantRes.Iters, wantRes.Converged)
	}
	if len(gotRes.Assign) != len(wantRes.Assign) {
		t.Fatalf("assignment lengths differ: %d vs %d", len(gotRes.Assign), len(wantRes.Assign))
	}
	for i := range wantRes.Assign {
		if gotRes.Assign[i] != wantRes.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, gotRes.Assign[i], wantRes.Assign[i])
		}
	}
	if math.Abs(gotRes.Cost-wantRes.Cost) > 1e-9*(1+wantRes.Cost) {
		t.Fatalf("cost %v vs %v", gotRes.Cost, wantRes.Cost)
	}
}

// The full pipeline also agrees with the in-process core implementation. At
// as many chunks as shards, core.Init, mrkm.Init and a distributed Init sum
// the same partials in the same order, so they agree bit for bit: ψ, the φ
// trace, the candidates, the centers and the seed cost, over float64 and
// over float32 points alike.
func TestFitAgreesWithCore(t *testing.T) {
	const workers = 2
	ds := blobs(t, 6, 80, 7, 30, 3)
	cfg := core.Config{K: 6, L: 12, Rounds: 5, Seed: 11}

	_, coreStats := core.Init(ds, cfg)
	c := loopbackCoordinator(t, ds, workers)
	_, res, stats, err := c.Fit(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != coreStats.Candidates {
		t.Fatalf("candidates: %d vs core %d", stats.Candidates, coreStats.Candidates)
	}
	if math.Abs(stats.Psi-coreStats.Psi) > 1e-6*(1+coreStats.Psi) {
		t.Fatalf("ψ: %v vs core %v", stats.Psi, coreStats.Psi)
	}
	if res.Cost > stats.SeedCost*(1+1e-9) {
		t.Fatalf("Lloyd did not improve on the seed: %v vs %v", res.Cost, stats.SeedCost)
	}
	if stats.RPCRounds == 0 || stats.Calls == 0 {
		t.Fatalf("network counters not populated: %+v", stats)
	}

	// 1500 points, K ∈ {12, 2, 3}: every dimension below and from 4 up
	// (where a pair distance sums in more than one chain), weighted and not,
	// at 1–3 partitions, 4 seeds each, in both precisions.
	for _, d := range []int{2, 7, 16, 58} {
		for _, weighted := range []bool{false, true} {
			ds := blobs(t, 12, 125, d, 20, uint64(d))
			if weighted {
				r := rng.New(uint64(d) + 100)
				ds.Weight = make([]float64, ds.N())
				for i := range ds.Weight {
					ds.Weight[i] = 0.5 + 2*r.Float64()
				}
			}
			ds32 := geom.ConvertSet[float32](ds)
			for w := 1; w <= 3; w++ {
				c := loopbackCoordinator(t, ds, w)
				c32 := loopbackCoordinator32(t, ds, w)
				for s := uint64(0); s < 4; s++ {
					// K = 12 clears geom.UseBlocked's crossover at every d;
					// K ∈ {2, 3} stays below it.
					for _, k := range []int{12, 2, 3} {
						cfg := core.Config{K: k, Seed: s, Parallelism: w}
						what := fmt.Sprintf("d=%d/w=%v/W=%d/seed=%d/K=%d", d, weighted, w, s, k)
						requireThreeAgree(t, what, ds, c, cfg)
						requireFloat32Agrees(t, what, ds32, c32, cfg)
					}
				}
			}
		}
	}

	// ℓ = 0.3: most rounds sample nothing, and fold nothing either.
	ds = blobs(t, 12, 125, 16, 20, 5)
	c = loopbackCoordinator(t, ds, 2)
	empty := 0
	for s := uint64(0); s < 4; s++ {
		cfg := core.Config{K: 12, L: 0.3, Rounds: 6, Seed: s, Parallelism: 2}
		_, st := core.Init(ds, cfg)
		for _, picks := range st.RoundCandidates {
			if picks == 0 {
				empty++
			}
		}
		requireThreeAgree(t, fmt.Sprintf("small-ell/seed=%d", s), ds, c, cfg)
	}
	if empty == 0 {
		t.Fatal("no ℓ = 0.3 round sampled nothing; the row tests nothing")
	}
}

// requireThreeAgree runs cfg through core.Init, mrkm.Init and c's
// distributed Init, at cfg.Parallelism partitions each, and requires every
// bit to agree.
func requireThreeAgree(t *testing.T, what string, ds *geom.Dataset, c *Coordinator, cfg core.Config) {
	t.Helper()
	want, ws := core.Init(ds, cfg)
	mc, ms := mrkm.Init(ds, cfg, mrkm.Config{Mappers: cfg.Parallelism})
	dc, dst, err := c.Init(cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	requireSameInit(t, what+": mrkm", mc, ms.Stats, want, ws)
	requireSameInit(t, what+": distkm", dc, dst.Stats, want, ws)
}

// requireFloat32Agrees is requireThreeAgree over float32 points: core.Init
// and mrkm.Init over ds32 and c32's float32 distributed Init.
func requireFloat32Agrees(t *testing.T, what string, ds32 *geom.Set[float32], c32 *Coordinator, cfg core.Config) {
	t.Helper()
	want, ws := core.Init(ds32, cfg)
	mc, ms := mrkm.Init(ds32, cfg, mrkm.Config{Mappers: cfg.Parallelism})
	dc, dst, err := c32.Init(cfg)
	if err != nil {
		t.Fatalf("%s: float32: %v", what, err)
	}
	requireSameInit(t, what+": float32 mrkm", mc, ms.Stats, want, ws)
	requireSameInit(t, what+": float32 distkm", dc, dst.Stats, want, ws)
}

// requireSameInit requires an Init's candidates by round, ψ, φ trace,
// centers and seed cost to equal want's, bit for bit.
func requireSameInit(t *testing.T, name string, got *geom.Matrix, gs core.Stats, want *geom.Matrix, ws core.Stats) {
	t.Helper()
	if gs.Candidates != ws.Candidates || !slices.Equal(gs.RoundCandidates, ws.RoundCandidates) {
		t.Fatalf("%s: %d candidates by round %v, want %d by round %v",
			name, gs.Candidates, gs.RoundCandidates, ws.Candidates, ws.RoundCandidates)
	}
	requireSameTrace(t, name+" ψ", []float64{gs.Psi}, []float64{ws.Psi})
	requireSameTrace(t, name+" φ trace", gs.PhiTrace, ws.PhiTrace)
	requireBitIdentical(t, name+" centers", got, want)
	requireSameTrace(t, name+" seed cost", []float64{gs.SeedCost}, []float64{ws.SeedCost})
}

// Step 8 runs on the driver, so every Recluster method gives the same bits
// in all three realizations.
func TestReclusterMethodsAgreeAcrossRealizations(t *testing.T) {
	ds := blobs(t, 6, 120, 5, 40, 18)
	c := loopbackCoordinator(t, ds, 3)
	for _, m := range []core.ReclusterMethod{core.ReclusterKMeansPP, core.ReclusterKMeansPPLloyd, core.ReclusterRandom} {
		requireThreeAgree(t, m.String(), ds, c, core.Config{K: 6, Seed: 19, Recluster: m, Parallelism: 3})
	}
}

// ExactL draws from the whole D² cache at once, which no shard holds: every
// entry point refuses it before any pass.
func TestExactLRefused(t *testing.T) {
	ds := blobs(t, 4, 60, 4, 20, 23)
	clients, closeAll := LoopbackCluster(2)
	t.Cleanup(closeAll)
	counted := make([]Client, len(clients))
	var calls atomic.Int64
	for i, cl := range clients {
		counted[i] = countingClient{cl, &calls}
	}
	c, err := NewCoordinator(counted)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	c.SetCheckpointer(&Checkpointer{Dir: t.TempDir()})
	loads := calls.Load()
	cfg := core.Config{K: 4, Seed: 3, Mode: core.ExactL}
	if _, _, err := c.Init(cfg); err == nil {
		t.Fatal("Init accepted ExactL")
	}
	if _, _, _, err := c.Fit(cfg, 5); err == nil {
		t.Fatal("Fit accepted ExactL")
	}
	if _, _, _, err := c.ResumeFit(cfg, 5); err == nil || !strings.Contains(err.Error(), "exact-l") {
		t.Fatalf("ResumeFit with ExactL: %v, want the sampling mode refused", err)
	}
	if n := calls.Load() - loads; n != 0 {
		t.Fatalf("%d shard calls made before refusing ExactL", n)
	}
}

// countingClient counts the calls it passes through.
type countingClient struct {
	Client
	n *atomic.Int64
}

func (c countingClient) Call(method string, args, reply any) error {
	c.n.Add(1)
	return c.Client.Call(method, args, reply)
}

func TestWeightedDatasetBitIdenticalToMRKM(t *testing.T) {
	const workers = 3
	ds := blobs(t, 4, 90, 5, 20, 5)
	w := make([]float64, ds.N())
	r := rng.New(77)
	for i := range w {
		w[i] = 0.5 + 2*r.Float64()
	}
	ds.Weight = w
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 13}

	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	c := loopbackCoordinator(t, ds, workers)
	gotCenters, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "weighted Init centers", gotCenters, wantCenters)
}

// More workers than points: the shard count clamps to n, exactly like the
// mrkm mapper clamp, and idle workers act as failover spares.
func TestMoreWorkersThanPoints(t *testing.T) {
	const workers = 8
	ds := blobs(t, 3, 1, 4, 50, 21) // 3 points
	cfg := core.Config{K: 2, L: 4, Rounds: 2, Seed: 3}

	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	c := loopbackCoordinator(t, ds, workers)
	if c.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", c.Shards())
	}
	gotCenters, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "tiny Init centers", gotCenters, wantCenters)
}

func TestSingleWorker(t *testing.T) {
	ds := blobs(t, 4, 50, 4, 30, 8)
	cfg := core.Config{K: 4, Seed: 2}
	wantCenters, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: 1})
	c := loopbackCoordinator(t, ds, 1)
	gotCenters, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "single-worker centers", gotCenters, wantCenters)
}

// Two coordinators sharing the same worker processes must not collide:
// shards are namespaced by fit id, so concurrent fits over different
// datasets both come out bit-identical to their single-process runs.
func TestConcurrentFitsShareWorkers(t *testing.T) {
	const workers = 2
	// One pool of workers, two independent coordinators dialing them.
	ws := make([]*Worker, workers)
	for i := range ws {
		ws[i] = NewWorker()
	}
	newCoord := func() *Coordinator {
		clients := make([]Client, workers)
		for i := range clients {
			clients[i] = NewLoopback(ws[i])
		}
		c, err := NewCoordinator(clients)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	dsA := blobs(t, 4, 100, 5, 20, 51)
	dsB := blobs(t, 6, 90, 7, 35, 53) // different n, dim, k
	cfgA := core.Config{K: 4, L: 8, Rounds: 4, Seed: 61}
	cfgB := core.Config{K: 6, L: 12, Rounds: 5, Seed: 67}
	wantA, _ := mrkm.Init(dsA, cfgA, mrkm.Config{Mappers: workers})
	wantB, _ := mrkm.Init(dsB, cfgB, mrkm.Config{Mappers: workers})

	coordA, coordB := newCoord(), newCoord()
	if err := coordA.Distribute(dsA); err != nil {
		t.Fatal(err)
	}
	if err := coordB.Distribute(dsB); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var gotA, gotB *geom.Matrix
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); gotA, _, errA = coordA.Init(cfgA) }()
	go func() { defer wg.Done(); gotB, _, errB = coordB.Init(cfgB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent fits failed: %v / %v", errA, errB)
	}
	requireBitIdentical(t, "concurrent fit A", gotA, wantA)
	requireBitIdentical(t, "concurrent fit B", gotB, wantB)

	// Close released both fits' shards from the shared pool.
	coordA.Close()
	coordB.Close()
	var st StatusReply
	if err := ws[0].Status(Ack{}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 0 {
		t.Fatalf("worker still holds %d shards after both coordinators closed", st.Shards)
	}
}

// wrapRows·4 overflows int to exactly 0: 1<<62 on 64-bit platforms.
const wrapRows = math.MaxInt>>1 + 1

// Malformed requests (inconsistent shapes, wrong dimensionality, empty
// center sets) must come back as RPC errors, not panics: a panic in a method
// goroutine would kill a shared worker process and every fit on it.
func TestMalformedRequestsDoNotKillWorker(t *testing.T) {
	w := NewWorker()
	cl := NewLoopback(w)
	t.Cleanup(func() { _ = cl.Close() })
	c, err := NewCoordinator([]Client{cl})
	if err != nil {
		t.Fatal(err)
	}
	ds := blobs(t, 2, 30, 3, 15, 81) // dim 3
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	ref := c.ref(0)

	bad := []struct {
		name string
		call func() error
	}{
		{"short data", func() error {
			return cl.Call("Worker.Update", UpdateArgs{Ref: ref, New: Mat{Rows: 2, Cols: 3, Data: []float64{1}}}, &CostReply{})
		}},
		{"wrong dim", func() error {
			return cl.Call("Worker.Cost", CentersArgs{Ref: ref, Centers: Mat{Rows: 1, Cols: 5, Data: make([]float64, 5)}}, &CostReply{})
		}},
		{"no centers", func() error {
			return cl.Call("Worker.LloydStep", CentersArgs{Ref: ref, Centers: Mat{Cols: 3}}, &LloydReply{})
		}},
		{"negative rows", func() error {
			return cl.Call("Worker.Farthest", CentersArgs{Ref: ref, Centers: Mat{Rows: -1, Cols: 3}}, &FarthestReply{})
		}},
		{"weights before any fold", func() error {
			return cl.Call("Worker.Weights", WeightsArgs{Ref: ref, Candidates: 1}, &WeightsReply{})
		}},
		{"fold group past the folded rows", func() error {
			return cl.Call("Worker.Update", UpdateArgs{Ref: ref, New: Mat{Rows: 1, Cols: 3, Data: make([]float64, 3)}, First: 2}, &CostReply{})
		}},
		// Both Load shapes below pass a bare Rows*Cols == len(Data) check
		// with no data, then ask install for an impossible allocation.
		{"load negative rows", func() error {
			return cl.Call("Worker.Load", LoadArgs{Ref: ref, Points: Mat{Rows: -1, Cols: 0}}, &Ack{})
		}},
		{"load rows×cols wraps to zero", func() error {
			return cl.Call("Worker.Load", LoadArgs{Ref: ref, Points: Mat{Rows: wrapRows, Cols: 4}}, &Ack{})
		}},
		{"load zero-width rows", func() error {
			return cl.Call("Worker.Load", LoadArgs{Ref: ref, Points: Mat{Rows: wrapRows, Cols: 0}}, &Ack{})
		}},
	}
	for _, tc := range bad {
		if err := tc.call(); err == nil {
			t.Fatalf("%s: accepted a malformed request", tc.name)
		}
	}
	// In-process callers reach Load without the wire codec's shape check;
	// the handler must reject the same shapes itself.
	for _, p := range []Mat{{Rows: -1}, {Rows: wrapRows, Cols: 4}, {Rows: wrapRows}} {
		if err := w.Load(LoadArgs{Ref: ref, Points: p}, &Ack{}); err == nil {
			t.Fatalf("direct Load accepted %d×%d points with no values", p.Rows, p.Cols)
		}
	}

	// The worker survived and still serves a full fit correctly.
	cfg := core.Config{K: 2, Seed: 5}
	want, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: 1})
	got, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "post-malformed-request fit", got, want)
}

// corruptSampler answers Sample with a Mat whose shape does not match its
// values: bytes no correct worker sends.
type corruptSampler struct{ *Worker }

func (corruptSampler) Sample(_ SampleArgs, reply *SampleReply) error {
	reply.Points = Mat{Rows: 2, Cols: 5, Data: []float64{1}}
	return nil
}

// A reply that fails to decode is the sending worker's fault: the
// coordinator fails that worker over, as after a transport error, and the
// fit is unchanged.
func TestCorruptReplyFailsWorkerOver(t *testing.T) {
	ds := blobs(t, 4, 100, 5, 20, 17)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 5}
	want, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: 2})

	c := withBadWorker(t, corruptSampler{NewWorker()}, 1)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers != 1 {
		t.Fatalf("%d failovers, want the corrupt worker's shard failed over once", stats.Failovers)
	}
	requireBitIdentical(t, "Init after a corrupt reply", got, want)
}

// withBadWorker builds a coordinator over two workers, a healthy loopback
// one and bad, which serves shard badShard (0 or 1) once the dataset is
// distributed. bad is served over a pipe through net/rpc, like a real
// worker.
func withBadWorker(t *testing.T, bad any, badShard int) *Coordinator {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", bad); err != nil {
		t.Fatal(err)
	}
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	badCl := rpc.NewClient(cliConn)
	good := NewLoopback(NewWorker())
	t.Cleanup(func() {
		_ = good.Close()
		_ = badCl.Close()
	})
	clients := []Client{good, badCl}
	if badShard == 0 {
		clients = []Client{badCl, good}
	}
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The misshapen workers answer one method with a reply that decodes but
// does not fit the request.
type (
	misshapenFetch   struct{ *Worker } // a point one coordinate too wide
	misshapenSample  struct{ *Worker } // rows one column too wide
	misshapenWeights struct{ *Worker } // one weight too many
	misshapenLloyd   struct{ *Worker } // one row of sums
	misshapenAssign  struct{ *Worker } // a center index out of range
)

func (w misshapenFetch) Fetch(args FetchArgs, reply *FetchReply) error {
	if err := w.Worker.Fetch(args, reply); err != nil {
		return err
	}
	reply.Point = append(reply.Point, 0)
	return nil
}

func (w misshapenSample) Sample(args SampleArgs, reply *SampleReply) error {
	if err := w.Worker.Sample(args, reply); err != nil {
		return err
	}
	p := reply.Points
	reply.Points = Mat{Rows: p.Rows, Cols: p.Cols + 1, Data: append(p.Data, make([]float64, p.Rows)...)}
	return nil
}

func (w misshapenWeights) Weights(args WeightsArgs, reply *WeightsReply) error {
	if err := w.Worker.Weights(args, reply); err != nil {
		return err
	}
	reply.W = append(reply.W, 1)
	return nil
}

func (w misshapenLloyd) LloydStep(args CentersArgs, reply *LloydReply) error {
	if err := w.Worker.LloydStep(args, reply); err != nil {
		return err
	}
	s := reply.Sums
	reply.Sums = Mat{Rows: 1, Cols: s.Cols, Data: s.Data[:s.Cols]}
	return nil
}

func (w misshapenAssign) Assign(args CentersArgs, reply *AssignReply) error {
	if err := w.Worker.Assign(args, reply); err != nil {
		return err
	}
	reply.Assign[0] = int32(args.Centers.Rows)
	return nil
}

// The poisoned workers answer one method with a reply of the right shape
// whose values no correct worker sends.
type (
	poisonedFetch    struct{ *Worker } // a NaN coordinate
	poisonedUpdate   struct{ *Worker } // a NaN φ partial
	poisonedSample   struct{ *Worker } // an infinite coordinate
	poisonedWeights  struct{ *Worker } // a negative weight
	poisonedCost     struct{ *Worker } // a negative φ partial
	poisonedLloyd    struct{ *Worker } // a negative weight column
	poisonedSums     struct{ *Worker } // a NaN coordinate sum
	poisonedAssign   struct{ *Worker } // a NaN φ partial
	farthestOutside  struct{ *Worker } // an index outside the shard
	poisonedFarthest struct{ *Worker } // a NaN cost
)

func (w poisonedFetch) Fetch(args FetchArgs, reply *FetchReply) error {
	if err := w.Worker.Fetch(args, reply); err != nil {
		return err
	}
	reply.Point[0] = math.NaN()
	return nil
}

func (w poisonedUpdate) Update(args UpdateArgs, reply *CostReply) error {
	if err := w.Worker.Update(args, reply); err != nil {
		return err
	}
	reply.Phi = math.NaN()
	return nil
}

func (w poisonedSample) Sample(args SampleArgs, reply *SampleReply) error {
	if err := w.Worker.Sample(args, reply); err != nil {
		return err
	}
	if len(reply.Points.Data) > 0 {
		reply.Points.Data[0] = math.Inf(1)
	}
	return nil
}

func (w poisonedWeights) Weights(args WeightsArgs, reply *WeightsReply) error {
	if err := w.Worker.Weights(args, reply); err != nil {
		return err
	}
	reply.W[0] = -1
	return nil
}

func (w poisonedCost) Cost(args CentersArgs, reply *CostReply) error {
	if err := w.Worker.Cost(args, reply); err != nil {
		return err
	}
	reply.Phi = -1
	return nil
}

func (w poisonedLloyd) LloydStep(args CentersArgs, reply *LloydReply) error {
	if err := w.Worker.LloydStep(args, reply); err != nil {
		return err
	}
	reply.Sums.Data[reply.Sums.Cols-1] = -1
	return nil
}

func (w poisonedSums) LloydStep(args CentersArgs, reply *LloydReply) error {
	if err := w.Worker.LloydStep(args, reply); err != nil {
		return err
	}
	reply.Sums.Data[0] = math.NaN()
	return nil
}

func (w poisonedAssign) Assign(args CentersArgs, reply *AssignReply) error {
	if err := w.Worker.Assign(args, reply); err != nil {
		return err
	}
	reply.Phi = math.NaN()
	return nil
}

func (w farthestOutside) Farthest(args CentersArgs, reply *FarthestReply) error {
	if err := w.Worker.Farthest(args, reply); err != nil {
		return err
	}
	reply.Index = 0 // shard 1 starts after row 0
	return nil
}

func (w poisonedFarthest) Farthest(args CentersArgs, reply *FarthestReply) error {
	if err := w.Worker.Farthest(args, reply); err != nil {
		return err
	}
	reply.Cost = math.NaN()
	return nil
}

// A reply that decodes but does not fit its request — a wrong count of
// weights, sums, rows, columns or assignments, an assignment to no center,
// a NaN or negative φ partial, weight or weight column, a NaN coordinate
// sum, a non-finite point coordinate, or a reseed candidate outside the
// shard or with a NaN cost — is the sending worker's fault too: the
// coordinator fails that worker over once, and the fit stays bit-identical
// to mrkm. Lloyd starts from the seeds with one row duplicated, so its
// first iteration empties a cluster and the reseed's Farthest pass runs.
func TestMisshapenReplyFailsWorkerOver(t *testing.T) {
	ds := blobs(t, 4, 100, 5, 20, 17)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 5}
	wantInit, wantStats := mrkm.Init(ds, cfg, mrkm.Config{Mappers: 2})
	dupRow := func(m *geom.Matrix) *geom.Matrix {
		m = m.Clone()
		copy(m.Row(3), m.Row(0))
		return m
	}
	wantRes, _ := mrkm.Lloyd(ds, dupRow(wantInit), 20, mrkm.Config{Mappers: 2})
	// Step 1 fetches the first center from the shard that owns it, so the
	// misshapen Fetch worker serves that shard.
	firstShard := 0
	if first := rng.New(cfg.Seed).Intn(ds.N()); first >= MakeSpans(ds.N(), 2)[1].Lo {
		firstShard = 1
	}
	for _, tc := range []struct {
		name     string
		bad      any
		badShard int
	}{
		{"Fetch", misshapenFetch{NewWorker()}, firstShard},
		{"Sample", misshapenSample{NewWorker()}, 1},
		{"Weights", misshapenWeights{NewWorker()}, 1},
		{"LloydStep", misshapenLloyd{NewWorker()}, 1},
		{"Assign", misshapenAssign{NewWorker()}, 1},
		{"PoisonedFetch", poisonedFetch{NewWorker()}, firstShard},
		{"PoisonedUpdate", poisonedUpdate{NewWorker()}, 1},
		{"PoisonedSample", poisonedSample{NewWorker()}, 1},
		{"PoisonedWeights", poisonedWeights{NewWorker()}, 1},
		{"PoisonedCost", poisonedCost{NewWorker()}, 1},
		{"PoisonedLloydStep", poisonedLloyd{NewWorker()}, 1},
		{"PoisonedSums", poisonedSums{NewWorker()}, 1},
		{"PoisonedAssign", poisonedAssign{NewWorker()}, 1},
		{"FarthestOutside", farthestOutside{NewWorker()}, 1},
		{"PoisonedFarthest", poisonedFarthest{NewWorker()}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := withBadWorker(t, tc.bad, tc.badShard)
			if err := c.Distribute(ds); err != nil {
				t.Fatal(err)
			}
			gotInit, initStats, err := c.Init(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, lloydStats, err := c.Lloyd(dupRow(gotInit), 20)
			if err != nil {
				t.Fatal(err)
			}
			if n := initStats.Failovers + lloydStats.Failovers; n != 1 {
				t.Fatalf("%d failovers, want the misshapen worker's shard failed over once", n)
			}
			requireBitIdentical(t, "Init", gotInit, wantInit)
			requireSameInit(t, "Init", gotInit, initStats.Stats, wantInit, wantStats.Stats)
			requireBitIdentical(t, "Lloyd centers", gotRes.Centers, wantRes.Centers)
			if !slices.Equal(gotRes.Assign, wantRes.Assign) {
				t.Fatal("assignments differ from mrkm's")
			}
			requireSameTrace(t, "Lloyd cost", []float64{gotRes.Cost}, []float64{wantRes.Cost})
		})
	}
}

// A coordinator that dies without Release leaves its shards behind; the
// janitor expires them once they go idle past the TTL.
func TestJanitorExpiresAbandonedShards(t *testing.T) {
	w := NewWorker()
	cl := NewLoopback(w)
	t.Cleanup(func() { _ = cl.Close() })
	c, err := NewCoordinator([]Client{cl})
	if err != nil {
		t.Fatal(err)
	}
	ds := blobs(t, 2, 30, 3, 15, 71)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed coordinator: no Close, no Release.
	stop := w.StartJanitor(30 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st StatusReply
		if err := w.Status(Ack{}, &st); err != nil {
			t.Fatal(err)
		}
		if st.Shards == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor never expired the abandoned shards (%d left)", st.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flakyClient passes through `healthy` calls, then fails everything —
// simulating a worker that dies mid-run. died, when set, runs once, on the
// first failed call.
type flakyClient struct {
	inner   Client
	mu      sync.Mutex
	healthy int
	died    func()
}

func (f *flakyClient) Call(method string, args, reply any) error {
	f.mu.Lock()
	f.healthy--
	dead, died := f.healthy < 0, f.died
	if dead {
		f.died = nil
	}
	f.mu.Unlock()
	if dead {
		if died != nil {
			died()
		}
		return errors.New("injected: connection reset by peer")
	}
	return f.inner.Call(method, args, reply)
}

func (f *flakyClient) Close() error { return f.inner.Close() }

// A worker dying mid-fit re-assigns its shard and changes nothing about the
// result: sampling is counter-based and reductions stay in shard order.
func TestWorkerFailoverPreservesBitIdentity(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 1)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 7}
	wantCenters, wantStats := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds, wantCenters, 20, mrkm.Config{Mappers: workers})

	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	// Worker 1 survives its shard load plus a few round-trips, then dies.
	clients[1] = &flakyClient{inner: clients[1], healthy: 4}
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	gotCenters, stats, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers == 0 {
		t.Fatal("expected at least one failover")
	}
	requireBitIdentical(t, "post-failover Init centers", gotCenters, wantCenters)
	requireSameTrace(t, "post-failover PhiTrace", stats.PhiTrace, wantStats.PhiTrace)

	gotRes, _, err := c.Lloyd(gotCenters, 20)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "post-failover Lloyd centers", gotRes.Centers, wantRes.Centers)
}

// loadOverlap holds each client's first call until every client has made
// one, so those calls provably run at the same time; missed records a wait
// that timed out instead.
type loadOverlap struct {
	arrive sync.WaitGroup
	all    chan struct{}
	missed atomic.Bool
}

func newLoadOverlap(n int) *loadOverlap {
	o := &loadOverlap{all: make(chan struct{})}
	o.arrive.Add(n)
	go func() {
		o.arrive.Wait()
		close(o.all)
	}()
	return o
}

// overlapClient joins its first call to a loadOverlap, then passes every
// call through.
type overlapClient struct {
	inner Client
	o     *loadOverlap
	first sync.Once
}

func (c *overlapClient) Call(method string, args, reply any) error {
	c.first.Do(func() {
		c.o.arrive.Done()
		select {
		case <-c.o.all:
		case <-time.After(10 * time.Second):
			c.o.missed.Store(true)
		}
	})
	return c.inner.Call(method, args, reply)
}

func (c *overlapClient) Close() error { return c.inner.Close() }

// A worker that dies on its own Load is failed over while the other shards'
// pushes are in flight, and the fit that follows is unchanged.
func TestWorkerDiesDuringDistribute(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 13)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 3}
	wantCenters, wantStats := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds, wantCenters, 20, mrkm.Config{Mappers: workers})

	clients, closeAll := LoopbackCluster(workers)
	t.Cleanup(closeAll)
	o := newLoadOverlap(workers)
	for i, cl := range clients {
		if i == 1 {
			cl = &flakyClient{inner: cl} // dies at its first call: its own Load
		}
		clients[i] = &overlapClient{inner: cl, o: o}
	}
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	if o.missed.Load() {
		t.Fatal("the shard loads did not overlap: Distribute pushed them one at a time")
	}
	snap := c.Snapshot()
	if snap.Failovers != 1 || snap.Workers[1].Alive || len(snap.Workers[1].Shards) != 0 {
		t.Fatalf("after Distribute: %d failovers, worker 1 %+v; want worker 1's shard failed over",
			snap.Failovers, snap.Workers[1])
	}

	gotCenters, stats, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "Init centers after a failed load", gotCenters, wantCenters)
	requireSameTrace(t, "PhiTrace after a failed load", stats.PhiTrace, wantStats.PhiTrace)
	gotRes, _, err := c.Lloyd(gotCenters, 20)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "Lloyd centers after a failed load", gotRes.Centers, wantRes.Centers)
}

// requireSameTrace fails unless got and want hold the same float64 bits.
func requireSameTrace(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// When every worker is gone the fit fails with an error instead of hanging.
func TestAllWorkersDeadFailsCleanly(t *testing.T) {
	clients, closeAll := LoopbackCluster(2)
	t.Cleanup(closeAll)
	wrapped := make([]Client, len(clients))
	for i, cl := range clients {
		wrapped[i] = &flakyClient{inner: cl, healthy: 2} // survive Distribute only
	}
	c, err := NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	ds := blobs(t, 3, 40, 4, 20, 6)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Init(core.Config{K: 3, Seed: 1}); err == nil {
		t.Fatal("Init succeeded with all workers dead")
	}
}

func TestLifecycleErrors(t *testing.T) {
	if _, err := NewCoordinator(nil); err == nil {
		t.Fatal("NewCoordinator accepted zero workers")
	}
	clients, closeAll := LoopbackCluster(1)
	t.Cleanup(closeAll)
	c, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Init(core.Config{K: 2}); err == nil {
		t.Fatal("Init before Distribute succeeded")
	}
	if _, _, err := c.Lloyd(geom.NewMatrix(2, 2), 5); err == nil {
		t.Fatal("Lloyd before Distribute succeeded")
	}
	if err := c.Distribute(geom.NewDataset(geom.NewMatrix(0, 3))); err == nil {
		t.Fatal("Distribute accepted an empty dataset")
	}
	ds := blobs(t, 2, 20, 3, 15, 4)
	if err := c.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Init(core.Config{K: 0}); err == nil {
		t.Fatal("Init accepted K=0")
	}
}

// Re-running Init on the same coordinator works (the Reset pass clears the
// caches), and Lloyd's cost never increases across its trace.
func TestReuseAndMonotoneTrace(t *testing.T) {
	ds := blobs(t, 5, 80, 4, 15, 11)
	c := loopbackCoordinator(t, ds, 2)
	cfg := core.Config{K: 5, Seed: 12}
	c1, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := c.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "repeated Init", c2, c1)

	res, _, err := c.Lloyd(c1, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.CostTrace); i++ {
		if res.CostTrace[i] > res.CostTrace[i-1]*(1+1e-9) {
			t.Fatalf("cost increased at %d: %v -> %v", i, res.CostTrace[i-1], res.CostTrace[i])
		}
	}
}

func TestMakeSpans(t *testing.T) {
	spans := MakeSpans(10, 3)
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	covered := 0
	for i, s := range spans {
		covered += s.Hi - s.Lo
		if i > 0 && spans[i-1].Hi != s.Lo {
			t.Fatalf("spans not contiguous: %+v", spans)
		}
	}
	if covered != 10 {
		t.Fatalf("spans cover %d of 10", covered)
	}
	if got := MakeSpans(2, 100); len(got) != 2 {
		t.Fatalf("shards should clamp to n: %d", len(got))
	}
}
