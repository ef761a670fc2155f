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
// probe must report AVX2+FMA, and TestPanelKernelSelected then requires
// the panel kernels: without this check a probe regression would quietly
// turn this leg's golden_test.go run into a second pure-Go one.
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
	if listed := flags["avx2"] && flags["fma"]; listed != hasAVX2FMA {
		t.Fatalf("/proc/cpuinfo lists avx2+fma = %v, CPUID probe reports AVX2+FMA = %v", listed, hasAVX2FMA)
	}
}
