package distkm

import (
	"math"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
)

// shardWeights asks every shard for its Step 7 partial over the k
// candidates its cache has folded and reduces them in shard order, as
// Init's Weights pass does. After Init nothing folds again, so the answer
// is the one Step 7 got.
func shardWeights(t *testing.T, c *Coordinator, k int) []float64 {
	t.Helper()
	w, err := passes{c: c}.Weights(k)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func requireSameWeights(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", what, len(got), len(want))
	}
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			t.Fatalf("%s: candidate %d weighs %v, want %v", what, c, got[c], want[c])
		}
	}
}

// Step 7 reads the nearest rows the folds left on the workers, so every path
// that rebuilds a shard's cache by replaying the fold groups rebuilds the
// rows too: a failover onto a survivor, a joiner stealing a shard mid-init,
// and ResumeFit from an init-phase checkpoint all leave the weights of the
// uninterrupted run, bit for bit. A duplicated Update folds a group twice,
// which changes nothing.
func TestStepSevenWeightsSurviveReplays(t *testing.T) {
	const workers = 3
	ds := blobs(t, 5, 120, 6, 25, 41)
	w := make([]float64, ds.N())
	for i := range w {
		w[i] = 0.5 + float64(i%7)/8
	}
	ds.Weight = w
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 21}
	ref := loopbackCoordinator(t, ds, workers)
	_, refStats, err := ref.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := shardWeights(t, ref, refStats.Candidates)

	initOver := func(t *testing.T, clients []Client) (*Coordinator, Stats) {
		t.Helper()
		c, err := NewCoordinator(clients)
		if err != nil {
			t.Fatal(err)
		}
		c.SetRetryPolicy(fastRetry)
		if err := c.Distribute(ds); err != nil {
			t.Fatal(err)
		}
		_, stats, err := c.Init(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, stats
	}

	t.Run("failover", func(t *testing.T) {
		clients, closeAll := LoopbackCluster(workers)
		t.Cleanup(closeAll)
		clients[1] = &flakyClient{inner: clients[1], healthy: 4}
		c, stats := initOver(t, clients)
		if stats.Failovers == 0 {
			t.Fatal("expected a failover")
		}
		requireSameWeights(t, "after a failover", shardWeights(t, c, stats.Candidates), want)
	})

	t.Run("joiner", func(t *testing.T) {
		clients, closeAll := LoopbackCluster(workers)
		t.Cleanup(closeAll)
		joiner := NewLoopback(NewWorker())
		t.Cleanup(func() { _ = joiner.Close() })
		// The victim's death piles its shard onto a survivor; the joiner
		// it hands over is admitted at the next fan-out and steals it.
		victim := &flakyClient{inner: clients[1], healthy: 4}
		clients[1] = victim
		c, err := NewCoordinator(clients)
		if err != nil {
			t.Fatal(err)
		}
		victim.died = func() { c.AddWorker(joiner) }
		c.SetRetryPolicy(fastRetry)
		if err := c.Distribute(ds); err != nil {
			t.Fatal(err)
		}
		_, stats, err := c.Init(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := c.Snapshot()
		if stats.Failovers == 0 || snap.Joins != 1 || snap.Workers[workers].Rows == 0 {
			t.Fatalf("want a failover and a joiner that took a shard: %d failovers, %+v", stats.Failovers, snap)
		}
		requireSameWeights(t, "after a joiner's steal", shardWeights(t, c, stats.Candidates), want)
	})

	t.Run("resume", func(t *testing.T) {
		dir := t.TempDir()
		if cp := crashFit(t, dir, ds, cfg, workers, 7); cp.Phase != PhaseInit || cp.Round < 1 {
			t.Fatalf("crash checkpointed phase %q round %d, want a sampling round of init", cp.Phase, cp.Round)
		}
		clients, closeAll := LoopbackCluster(2) // fewer workers than crashed
		t.Cleanup(closeAll)
		c, err := NewCoordinator(clients)
		if err != nil {
			t.Fatal(err)
		}
		c.SetCheckpointer(&Checkpointer{Dir: dir})
		if err := c.Distribute(ds); err != nil {
			t.Fatal(err)
		}
		_, _, stats, err := c.ResumeFit(cfg, 20)
		if err != nil {
			t.Fatal(err)
		}
		requireSameWeights(t, "after ResumeFit", shardWeights(t, c, stats.Candidates), want)
	})

	t.Run("duplicate", func(t *testing.T) {
		clients, closeAll := LoopbackCluster(workers)
		t.Cleanup(closeAll)
		for i, cl := range clients {
			clients[i] = NewChaosTransport(cl, ChaosConfig{Seed: uint64(i) + 1, DupProb: 1})
		}
		c, stats := initOver(t, clients)
		requireSameWeights(t, "with every call sent twice", shardWeights(t, c, stats.Candidates), want)
	})
}

// A worker weighs exactly the candidate rows folded since its cache was last
// reset: it rejects a Weights count that differs, and a fold group that
// starts past those rows. Folding a group again changes nothing, and a group
// at row 0 starts over.
func TestWorkerWeighsFoldedCandidatesOnly(t *testing.T) {
	ds := blobs(t, 2, 20, 3, 10, 5)
	w := NewWorker()
	ref := ShardRef{Fit: 1}
	if err := w.Load(LoadArgs{Ref: ref, Points: matOf(ds.X.Rows, ds.X.Cols, ds.X.Data)}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	update := func(first int, rows ...int) error {
		g := &geom.Matrix{Cols: ds.Dim()}
		for _, i := range rows {
			g.AppendRow(ds.Point(i))
		}
		return w.Update(UpdateArgs{Ref: ref, New: matOf(g.Rows, g.Cols, g.Data), First: first}, &CostReply{})
	}
	weights := func(k int) ([]float64, error) {
		var rep WeightsReply
		err := w.Weights(WeightsArgs{Ref: ref, Candidates: k}, &rep)
		return rep.W, err
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	if _, err := weights(1); err == nil {
		t.Fatal("Weights before any fold was accepted")
	}
	must(update(0, 3))
	must(update(1, 7, 30, 12))
	if err := update(5, 1); err == nil {
		t.Fatal("a fold group starting past the 4 folded rows was accepted")
	}
	for _, k := range []int{3, 5} {
		if _, err := weights(k); err == nil {
			t.Fatalf("Weights over %d candidates accepted with 4 folded", k)
		}
	}
	got, err := weights(4)
	must(err)
	var total float64
	for _, v := range got {
		total += v
	}
	if len(got) != 4 || total != float64(ds.N()) {
		t.Fatalf("weights %v: want 4 summing to %d", got, ds.N())
	}

	must(update(1, 7, 30, 12))
	again, err := weights(4)
	must(err)
	requireSameWeights(t, "after a repeated fold", again, got)

	must(update(0, 30))
	if _, err := weights(4); err == nil {
		t.Fatal("Weights over 4 candidates accepted after a reset to 1")
	}
	one, err := weights(1)
	must(err)
	if one[0] != float64(ds.N()) {
		t.Fatalf("one candidate weighs %v, want %d", one[0], ds.N())
	}
}
