//go:build amd64 && !km_purego

package geom

// Zero-dependency CPUID feature detection for the AVX2+FMA and AVX-512
// kernels. The module is dependency-free by policy, so instead of
// x/sys/cpu the two privileged-instruction wrappers live in cpu_amd64.s
// and the decode logic here. Detection runs once at package init; the
// result gates the float32 AVX2 tier (dotf32_avx2_amd64.s) and picks the
// panel rung of both precisions: AVX-512 (panel512_amd64.s) where
// hasAVX512 holds, else AVX2 (panel_amd64.s) where hasAVX2FMA does.

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// hasAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernels:
// AVX2 and FMA in CPUID, plus OS-managed XMM+YMM state.
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled or YMM state
	// is not preserved across context switches.
	xlo, _ := xgetbvAsm()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// hasAVX512 reports whether the CPU and OS support the AVX-512 panel
// rung: everything hasAVX2FMA requires, AVX-512F in CPUID, and OS-managed
// opmask and ZMM state. The rung uses no other AVX-512 extension.
var hasAVX512 = hasAVX2FMA && detectAVX512()

func detectAVX512() bool {
	// XCR0 bits 5 (opmask), 6 (ZMM0–15 upper halves) and 7 (ZMM16–31)
	// must all be OS-enabled, or ZMM and opmask state is not preserved
	// across context switches.
	xlo, _ := xgetbvAsm()
	if xlo&0xe0 != 0xe0 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx512fBit = 1 << 16
	return ebx7&avx512fBit != 0
}
