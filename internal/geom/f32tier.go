package geom

import "sync/atomic"

// This file holds the float32 kernel tier ladder: runtime selection between
// the pure-Go dot kernels, the baseline SIMD kernels the architecture
// guarantees (SSE2 on amd64, NEON on arm64), and the AVX2+FMA kernels gated
// on CPUID feature detection (cpu_amd64.go). The active tier is process-wide
// and atomically swappable so tests and benchmarks can force any available
// tier; the km_purego build tag removes every assembly tier at compile time.
//
// Summation-order guarantee: within one tier, each (point, center) inner
// product is accumulated in a fixed order that depends only on the dimension
// and the center's position in the tile ladder — never on worker count or
// tiling position — so results are bit-identical across parallelism for a
// fixed tier. Different tiers use different accumulation orders (sequential,
// 4-lane strided, 8-lane strided with FMA) and agree only under the
// tolerance contract in docs/kernels.md.

// F32Tier identifies one rung of the float32 dot-kernel ladder.
type F32Tier int32

const (
	// F32TierPureGo is the portable Go implementation — always available,
	// and the only tier in km_purego builds.
	F32TierPureGo F32Tier = iota
	// F32TierSSE2 is the 4-wide SSE2 kernel set (amd64 baseline; no feature
	// detection needed).
	F32TierSSE2
	// F32TierNEON is the 4-wide NEON kernel set (arm64 baseline; ASIMD is
	// architectural on ARMv8).
	F32TierNEON
	// F32TierAVX2 is the 8-wide AVX2+FMA kernel set, used only when CPUID
	// reports AVX2, FMA, and OS-enabled YMM state.
	F32TierAVX2
)

// String returns the tier's CLI/doc spelling ("purego", "sse2", "neon",
// "avx2").
func (t F32Tier) String() string {
	switch t {
	case F32TierPureGo:
		return "purego"
	case F32TierSSE2:
		return "sse2"
	case F32TierNEON:
		return "neon"
	case F32TierAVX2:
		return "avx2"
	default:
		return "unknown"
	}
}

// f32Tier holds the active tier. It is initialised to the best tier the
// binary and CPU support and can be pinned by SetF32Tier.
var f32Tier atomic.Int32

func init() { f32Tier.Store(int32(bestF32Tier())) }

// bestF32Tier returns the fastest tier available in this binary on this CPU.
func bestF32Tier() F32Tier {
	if hasAVX2FMA {
		return F32TierAVX2
	}
	if hasDotF32Asm {
		return baselineF32Tier
	}
	return F32TierPureGo
}

// f32TierAvailable reports whether tier t can execute in this binary on this
// CPU.
func f32TierAvailable(t F32Tier) bool {
	switch t {
	case F32TierPureGo:
		return true
	case F32TierAVX2:
		return bool(hasAVX2FMA)
	default:
		return hasDotF32Asm && t == baselineF32Tier
	}
}

// activeF32Tier is the dispatch-site load of the current tier.
func activeF32Tier() F32Tier { return F32Tier(f32Tier.Load()) }

// ActiveF32Tier returns the float32 kernel tier currently in use.
func ActiveF32Tier() F32Tier { return activeF32Tier() }

// SetF32Tier forces a specific float32 kernel tier and reports whether the
// request took effect (false when the binary or CPU lacks the tier). It is
// the test/bench knob behind the runtime dispatch; production code should
// leave the automatically selected tier alone.
func SetF32Tier(t F32Tier) bool {
	if !f32TierAvailable(t) {
		return false
	}
	f32Tier.Store(int32(t))
	return true
}

// F32Tiers returns every tier available in this binary on this CPU in
// ascending preference order, starting with F32TierPureGo.
func F32Tiers() []F32Tier {
	tiers := []F32Tier{F32TierPureGo}
	if hasDotF32Asm {
		tiers = append(tiers, baselineF32Tier)
	}
	if hasAVX2FMA {
		tiers = append(tiers, F32TierAVX2)
	}
	return tiers
}
