package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"kmeansll/internal/eval"
)

// tiny returns Options that make every driver cheap enough for unit tests.
func tiny() Options { return Options{Quick: true, Trials: 1, Seed: 1} }

func checkTables(t *testing.T, tables []eval.Table, wantIDs ...string) {
	t.Helper()
	if len(tables) != len(wantIDs) {
		t.Fatalf("got %d tables, want %d", len(tables), len(wantIDs))
	}
	for i, tab := range tables {
		if tab.ID != wantIDs[i] {
			t.Fatalf("table %d id %q, want %q", i, tab.ID, wantIDs[i])
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("table %s has no rows", tab.ID)
		}
		for ri, row := range tab.Rows {
			if len(row) != len(tab.Headers) {
				t.Fatalf("table %s row %d has %d cells for %d headers",
					tab.ID, ri, len(row), len(tab.Headers))
			}
			for ci, cell := range row {
				if strings.TrimSpace(cell) == "" {
					t.Fatalf("table %s cell (%d,%d) empty", tab.ID, ri, ci)
				}
			}
		}
		if out := tab.Render(); !strings.Contains(out, tab.ID) {
			t.Fatalf("render of %s missing id", tab.ID)
		}
	}
}

func TestTable1Driver(t *testing.T) {
	checkTables(t, Table1(tiny()), "table1")
}

func TestSpamTablesDriver(t *testing.T) {
	tabs := SpamTables(tiny())
	checkTables(t, tabs, "table2", "table6")
	// Table 6 cells (other than method names) must be numeric iteration
	// counts ≥ 1.
	for _, row := range tabs[1].Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 1 {
				t.Fatalf("table6 cell %q not a valid iteration count", cell)
			}
		}
	}
}

func TestKDDTablesDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("KDD driver is the heaviest; skipped in -short")
	}
	opt := tiny()
	tabs := KDDTables(opt)
	checkTables(t, tabs, "table3", "table4", "table5")

	// Qualitative claims of Tables 3 and 5 must hold even at tiny scale:
	// Random's cost is orders of magnitude worse than every k-means|| row,
	// and k-means|| intermediate sets are much smaller than Partition's.
	t3, t5 := tabs[0], tabs[2]
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable cell %q", s)
		}
		return v
	}
	randCost := parse(t3.Rows[0][1])
	for _, row := range t3.Rows[2:] { // k-means|| rows
		if got := parse(row[1]); got*10 > randCost {
			t.Fatalf("Random cost %v not ≫ %s cost %v", randCost, row[0], got)
		}
	}
	partInter := parse(t5.Rows[1][1])
	kmllInter := parse(t5.Rows[5][1]) // l=2k row
	if kmllInter*2 > partInter {
		t.Fatalf("k-means|| intermediate %v not ≪ Partition %v", kmllInter, partInter)
	}
}

func TestFig51Driver(t *testing.T) {
	checkTables(t, Fig51(tiny()), "fig5_1")
}

func TestFig52Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep driver skipped in -short")
	}
	tabs := Fig52(tiny())
	checkTables(t, tabs, "fig5_2_seed", "fig5_2_final")
}

func TestFig53Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep driver skipped in -short")
	}
	checkTables(t, Fig53(tiny()), "fig5_3_seed", "fig5_3_final")
}

func TestAblationDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short")
	}
	checkTables(t, AblationSampling(tiny()), "ablation_sampling")
	checkTables(t, AblationRecluster(tiny()), "ablation_recluster")
	assign := AblationAssign(tiny())
	checkTables(t, assign, "ablation_assign")
	requireKernelsAgree(t, assign[0])
	checkTables(t, AblationMapReduce(tiny()), "ablation_mapreduce")
}

// requireKernelsAgree fails unless every kernel's row of the assignment
// ablation reports its shape's naive iteration count and final cost, the
// cost digit for digit (the table prints its shortest exact form).
func requireKernelsAgree(t *testing.T, tab eval.Table) {
	t.Helper()
	naive := map[string][]string{}
	for _, row := range tab.Rows {
		shape, kernel, result := row[0], row[1], row[3:]
		if kernel == "naive" {
			naive[shape] = result
			continue
		}
		if want, ok := naive[shape]; !ok || !slices.Equal(result, want) {
			t.Fatalf("%s: %s ran %v (iters, cost), naive %v", shape, kernel, result, want)
		}
	}
	if len(naive) != len(assignShapes) {
		t.Fatalf("%d shapes have a naive row, want %d", len(naive), len(assignShapes))
	}
}

func TestExtensionAblationDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("extension ablations skipped in -short")
	}
	checkTables(t, AblationStreaming(tiny()), "ablation_streaming")
	checkTables(t, AblationSeeding(tiny()), "ablation_seeding")
	checkTables(t, AblationKDTree(tiny()), "ablation_kdtree")
	checkTables(t, AblationTrimmed(tiny()), "ablation_trimmed")
	checkTables(t, AblationRestarts(tiny()), "ablation_restarts")
}

func TestAblationParallelismDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ablation skipped in -short")
	}
	tabs := AblationParallelism(tiny())
	checkTables(t, tabs, "ablation_parallelism")
	// Seed cost must be identical across worker counts (determinism).
	first := tabs[0].Rows[0][2]
	for _, row := range tabs[0].Rows {
		if row[2] != first {
			t.Fatalf("seed cost differs across workers: %v vs %v", row[2], first)
		}
	}
}

func TestTheoryDriver(t *testing.T) {
	tabs := TheoryBounds(tiny())
	checkTables(t, tabs, "theory")
	// The "within" cells for rounds ≥ 1 must parse and stay ≤ 1.2
	// (Theorem 2 with sampling slack).
	for _, row := range tabs[0].Rows[1:] {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("within cell %q unparseable", row[4])
		}
		if v > 1.2 {
			t.Fatalf("measured contraction %v exceeds Theorem 2 bound", v)
		}
	}
}

func TestRegistryFind(t *testing.T) {
	for _, d := range Registry {
		if got, err := Find(d.Name); err != nil || got.Name != d.Name {
			t.Fatalf("Find(%q) = %v, %v", d.Name, got, err)
		}
		for _, id := range d.IDs {
			if got, err := Find(id); err != nil || got.Name != d.Name {
				t.Fatalf("Find(%q) = %v, %v", id, got, err)
			}
		}
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("Find accepted unknown id")
	}
	if _, err := Find("TABLE3"); err != nil {
		t.Fatalf("Find should be case-insensitive: %v", err)
	}
}

func TestOptionsTrials(t *testing.T) {
	if got := (Options{}).trials(11); got != 11 {
		t.Fatalf("default trials = %d", got)
	}
	if got := (Options{Quick: true}).trials(11); got != 5 {
		t.Fatalf("quick trials = %d", got)
	}
	if got := (Options{Trials: 3}).trials(11); got != 3 {
		t.Fatalf("override trials = %d", got)
	}
	if got := (Options{Quick: true}).trials(3); got != 3 {
		t.Fatalf("quick should not raise small defaults: %d", got)
	}
}
