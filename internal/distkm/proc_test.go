package distkm

import (
	"bufio"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kmeansll/internal/core"
	"kmeansll/internal/mrkm"
)

// startWorkerProc builds (once) and launches a real kmworker process on a
// free port, returning its address. The process is killed at test cleanup.
func startWorkerProc(t *testing.T, bin string) string {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "kmworker: listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(10 * time.Second):
		t.Fatal("kmworker did not report its address within 10s")
		return ""
	}
}

// TestTwoProcessFitBitIdentical is the acceptance test for the networked
// tier: a fit over two real kmworker OS processes (TCP + gob) produces
// bit-identical centers to the single-process mrkm realization with two
// mappers. Skipped under -short because it shells out to `go build`.
func TestTwoProcessFitBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two-process integration test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "kmworker")
	build := exec.Command("go", "build", "-tags", workerBuildTags, "-o", bin, "kmeansll/cmd/kmworker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kmworker: %v\n%s", err, out)
	}

	const workers = 2
	addrs := make([]string, workers)
	for i := range addrs {
		addrs[i] = startWorkerProc(t, bin)
	}

	clients := make([]Client, workers)
	for i, addr := range addrs {
		cl, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dialing worker %d at %s: %v", i, addr, err)
		}
		clients[i] = cl
	}
	coord, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ds := blobs(t, 5, 150, 8, 30, 17)
	cfg := core.Config{K: 5, L: 10, Rounds: 5, Seed: 23}
	if err := coord.Distribute(ds); err != nil {
		t.Fatal(err)
	}

	wantInit, wantStats := mrkm.Init(ds, cfg, mrkm.Config{Mappers: workers})
	wantRes, _ := mrkm.Lloyd(ds, wantInit, 20, mrkm.Config{Mappers: workers})

	gotInit, gotStats, err := coord.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "two-process Init centers", gotInit, wantInit)
	if gotStats.Candidates != wantStats.Candidates {
		t.Fatalf("candidates: %d vs %d", gotStats.Candidates, wantStats.Candidates)
	}
	for i := range wantStats.PhiTrace {
		if math.Float64bits(gotStats.PhiTrace[i]) != math.Float64bits(wantStats.PhiTrace[i]) {
			t.Fatalf("φ trace differs at %d over TCP: %v vs %v",
				i, gotStats.PhiTrace[i], wantStats.PhiTrace[i])
		}
	}

	gotRes, _, err := coord.Lloyd(gotInit, 20)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "two-process Lloyd centers", gotRes.Centers, wantRes.Centers)
	for i := range wantRes.Assign {
		if gotRes.Assign[i] != wantRes.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, gotRes.Assign[i], wantRes.Assign[i])
		}
	}
}

// TestTwoProcessWorkerKill kills one of the worker processes mid-fit and
// checks the coordinator finishes with the exact same centers anyway.
func TestTwoProcessWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two-process integration test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "kmworker")
	build := exec.Command("go", "build", "-tags", workerBuildTags, "-o", bin, "kmeansll/cmd/kmworker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kmworker: %v\n%s", err, out)
	}

	// Three real processes; we will kill the third after seeding starts.
	cmds := make([]*exec.Cmd, 0, 3)
	clients := make([]Client, 3)
	for i := 0; i < 3; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		})
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "kmworker: listening on "); ok {
				addr = strings.TrimSpace(rest)
				break
			}
		}
		if addr == "" {
			t.Fatal("no address from kmworker")
		}
		cl, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	coord, err := NewCoordinator(clients)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ds := blobs(t, 4, 120, 6, 25, 29)
	cfg := core.Config{K: 4, L: 8, Rounds: 4, Seed: 31}
	if err := coord.Distribute(ds); err != nil {
		t.Fatal(err)
	}
	wantInit, _ := mrkm.Init(ds, cfg, mrkm.Config{Mappers: 3})

	// Kill worker 2 before fitting: its shard must fail over.
	_ = cmds[2].Process.Kill()
	_, _ = cmds[2].Process.Wait()

	gotInit, stats, err := coord.Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers == 0 {
		t.Fatal("expected a failover after killing a worker process")
	}
	requireBitIdentical(t, "post-kill Init centers", gotInit, wantInit)
}
