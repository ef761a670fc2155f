//go:build amd64 && !km_purego

package geom

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestProbeFindsAVX2FMA cross-checks the CPUID probe against the
// operating system's view of the CPU. Where Linux lists avx2 and fma in
// /proc/cpuinfo (it drops them when YMM state is not OS-enabled), the
// probe must report AVX2+FMA; where it also lists avx512f (dropped when
// ZMM or opmask state is not OS-enabled), the probe must report AVX-512F.
// TestPanelKernelSelected then requires the matching panel rung: without
// this check a probe regression would quietly turn this leg's
// golden_test.go run into a second pure-Go one, or into an AVX2 one on an
// AVX-512 runner. Both tests log the rung.
func TestProbeFindsAVX2FMA(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check the probe against: %v", err)
	}
	flags := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(info))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, list, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	avx2 := flags["avx2"] && flags["fma"]
	avx512 := avx2 && flags["avx512f"]
	t.Logf("/proc/cpuinfo lists avx2+fma %v, avx512f %v; probe reports AVX2+FMA %v, AVX-512F %v",
		avx2, flags["avx512f"], hasAVX2FMA, hasAVX512)
	if avx2 != hasAVX2FMA {
		t.Fatalf("/proc/cpuinfo lists avx2+fma = %v, CPUID probe reports AVX2+FMA = %v", avx2, hasAVX2FMA)
	}
	if avx512 != hasAVX512 {
		t.Fatalf("/proc/cpuinfo lists avx2+fma+avx512f = %v, CPUID probe reports AVX-512F = %v", avx512, hasAVX512)
	}
}
