package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := Median([]float64{7}); m != 7 {
		t.Fatalf("singleton median = %v", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
}

func TestMedianPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty")
		}
	}()
	Median(nil)
}

// Property: median is bounded by min and max and invariant to permutation.
func TestMedianProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		m := Median(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		return m >= lo && m <= hi && Median(rev) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterModel(t *testing.T) {
	m := ClusterModel{Machines: 10, Throughput: 1e6, Setup: 5}
	// 1e7 work on 10 machines = 1s compute + 5s setup.
	if got := m.PhaseSeconds(1e7, 10); math.Abs(got-6) > 1e-9 {
		t.Fatalf("PhaseSeconds = %v, want 6", got)
	}
	// Machine cap below cluster size (the Partition situation).
	if got := m.PhaseSeconds(1e7, 2); math.Abs(got-10) > 1e-9 {
		t.Fatalf("capped PhaseSeconds = %v, want 10", got)
	}
	// Requesting more machines than the cluster has is clamped.
	if got := m.PhaseSeconds(1e7, 1000); math.Abs(got-6) > 1e-9 {
		t.Fatalf("over-request PhaseSeconds = %v, want 6", got)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		ID:      "t1",
		Title:   "demo",
		Headers: []string{"method", "cost"},
		Rows:    [][]string{{"random", "14"}, {"k-means||", "13.9"}},
		Notes:   []string{"scaled by 1e4"},
	}
	out := tab.Render()
	for _, want := range []string{"t1", "demo", "method", "random", "k-means||", "note: scaled"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestRenderCSV(t *testing.T) {
	tab := Table{
		ID:      "t1",
		Title:   "demo",
		Headers: []string{"method", "cost"},
		Rows:    [][]string{{"random", "14"}, {"with,comma", `with"quote`}},
		Notes:   []string{"a note"},
	}
	out := tab.RenderCSV()
	for _, want := range []string{
		"# t1: demo\n", "method,cost\n", "random,14\n",
		`"with,comma","with""quote"` + "\n", "# a note\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestFmtCost(t *testing.T) {
	if got := FmtCost(230000, 4); got != "23" {
		t.Fatalf("FmtCost(2.3e5, 4) = %q", got)
	}
	if got := FmtCost(15000, 4); got != "1.5" {
		t.Fatalf("FmtCost(1.5e4, 4) = %q", got)
	}
	if got := FmtCost(0, 4); got != "0" {
		t.Fatalf("FmtCost(0) = %q", got)
	}
}

func TestTimed(t *testing.T) {
	d := Timed(func() {})
	if d < 0 {
		t.Fatalf("negative duration %v", d)
	}
}
