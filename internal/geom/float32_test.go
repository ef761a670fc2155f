package geom

import (
	"fmt"
	"math"
	"testing"
)

// randMatrix32Pair builds a random float64 matrix and its float32 narrowing.
func randMatrix32Pair(rows, cols int, seed uint64) (*Matrix, *Mat[float32]) {
	m := NewMatrix(rows, cols)
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		// Uniform in [-2, 2): unit-scale data, the regime the tolerance
		// contract targets.
		m.Data[i] = 4*float64(s>>11)/(1<<53) - 2
	}
	return m, Convert[float32](m)
}

// TestNearestBlocked32MatchesF64 checks the core of the float32 tolerance
// contract on the kernel itself: assignments agree with the exact float64
// scan except where two centers are within float32 noise of a tie, and the
// reported distance is always within relative tolerance of the true one.
func TestNearestBlocked32MatchesF64(t *testing.T) {
	defer SetF32Tier(ActiveF32Tier())
	for _, asm := range asmVariants(t) {
		t.Run(fmt.Sprintf("asm=%v", asm), func(t *testing.T) {
			SetF32Tier(asmTier(asm))
			for _, dim := range []int{1, 2, 3, 5, 8, 16, 31, 32, 33, 64, 128} {
				for _, k := range []int{1, 2, 4, 5, 16, 17, 33} {
					n := 257 // odd: exercises the tail-point path in every tile
					pts64, pts32 := randMatrix32Pair(n, dim, uint64(dim*1000+k))
					ctr64, ctr32 := randMatrix32Pair(k, dim, uint64(dim*7777+k))
					cNorms := RowSqNorms(ctr32, nil)
					sc := GetScratch[float32]()
					idx := make([]int32, n)
					d2 := make([]float32, n)
					NearestBlocked(pts32, ctr32, cNorms, idx, d2, sc)
					sc.Release()
					for i := 0; i < n; i++ {
						wantIdx, wantD2 := Nearest(pts64.Row(i), ctr64)
						scale := SqNorm(pts64.Row(i)) + SqNorm(ctr64.Row(wantIdx)) + 1
						if gotD2 := float64(d2[i]); math.Abs(gotD2-wantD2) > 1e-5*scale {
							t.Fatalf("dim=%d k=%d point %d: d2 %v, want %v (scale %v)", dim, k, i, gotD2, wantD2, scale)
						}
						if int(idx[i]) != wantIdx {
							// Disagreement is allowed only on a near-tie.
							alt := SqDist(pts64.Row(i), ctr64.Row(int(idx[i])))
							if math.Abs(alt-wantD2) > 1e-4*scale {
								t.Fatalf("dim=%d k=%d point %d: picked center %d (d2=%v) over %d (d2=%v), not a near-tie",
									dim, k, i, idx[i], alt, wantIdx, wantD2)
							}
						}
					}
				}
			}
		})
	}
}

// asmVariants returns the kernel variants testable in this binary: the
// pure-Go tier, plus the best assembly tier when one exists.
func asmVariants(t *testing.T) []bool {
	t.Helper()
	if hasDotF32Asm {
		return []bool{false, true}
	}
	return []bool{false}
}

// asmTier maps an asmVariants entry to its tier.
func asmTier(asm bool) F32Tier {
	if asm {
		return bestF32Tier()
	}
	return F32TierPureGo
}

// TestDotF32AsmMatchesGo pins the assembly kernels against the pure-Go ones
// directly, across lengths that hit the 4-wide body and every tail size.
func TestDotF32AsmMatchesGo(t *testing.T) {
	if !hasDotF32Asm {
		t.Skip("no assembly kernels in this build")
	}
	for _, d := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 58, 63, 64, 127, 128} {
		_, a := randMatrix32Pair(1, d+1, uint64(d)+1)
		_, b := randMatrix32Pair(1, d+1, uint64(d)+2)
		_, cs := randMatrix32Pair(4, d+1, uint64(d)+3)
		av, bv := a.Data[:d], b.Data[:d]
		c0, c1, c2, c3 := cs.Row(0)[:d], cs.Row(1)[:d], cs.Row(2)[:d], cs.Row(3)[:d]
		g := [8]float32{}
		g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7] = dot2x4(av, bv, c0, c1, c2, c3)
		s := [8]float32{}
		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = dot2x4f32asm(av, bv, c0, c1, c2, c3)
		for j := range g {
			if math.Abs(float64(g[j]-s[j])) > 1e-4*(math.Abs(float64(g[j]))+1) {
				t.Fatalf("d=%d: dot2x4 lane %d: go %v, asm %v", d, j, g[j], s[j])
			}
		}
		g1 := [4]float32{}
		g1[0], g1[1], g1[2], g1[3] = dot1x4(av, c0, c1, c2, c3)
		s1 := [4]float32{}
		s1[0], s1[1], s1[2], s1[3] = dot1x4f32asm(av, c0, c1, c2, c3)
		for j := range g1 {
			if math.Abs(float64(g1[j]-s1[j])) > 1e-4*(math.Abs(float64(g1[j]))+1) {
				t.Fatalf("d=%d: dot1x4 lane %d: go %v, asm %v", d, j, g1[j], s1[j])
			}
		}
	}
}

// TestPairwiseSqDist32 checks the full-block kernel against the per-pair
// float32 reference arithmetic.
func TestPairwiseSqDist32(t *testing.T) {
	defer SetF32Tier(ActiveF32Tier())
	for _, asm := range asmVariants(t) {
		SetF32Tier(asmTier(asm))
		for _, dim := range []int{1, 4, 17, 58} {
			n, k := 37, 9
			_, pts := randMatrix32Pair(n, dim, uint64(dim)*31)
			_, ctr := randMatrix32Pair(k, dim, uint64(dim)*131)
			out := make([]float32, n*k)
			PairwiseSqDist(pts, ctr, nil, nil, out)
			for i := 0; i < n; i++ {
				for j := 0; j < k; j++ {
					want := sqDistWide(pts.Row(i), ctr.Row(j))
					scale := float64(SqNorm(pts.Row(i))+SqNorm(ctr.Row(j))) + 1
					if got := float64(out[i*k+j]); math.Abs(got-want) > 1e-5*scale {
						t.Fatalf("asm=%v dim=%d (%d,%d): got %v, want %v", asm, dim, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestNearestBlockedRows32 exercises the gather-and-convert serving entry.
func TestNearestBlockedRows32(t *testing.T) {
	n, dim, k := 300, 23, 11
	pts64, _ := randMatrix32Pair(n, dim, 5)
	ctr64, ctr32 := randMatrix32Pair(k, dim, 6)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = pts64.Row(i)
	}
	cNorms := RowSqNorms(ctr32, nil)
	out := make([]int, n)
	sc := GetScratch[float32]()
	NearestBlockedRows(rows, ctr32, cNorms, out, sc)
	sc.Release()
	for i, got := range out {
		want, wantD2 := Nearest(rows[i], ctr64)
		if got != want {
			alt := SqDist(rows[i], ctr64.Row(got))
			scale := SqNorm(rows[i]) + 1
			if math.Abs(alt-wantD2) > 1e-4*scale {
				t.Fatalf("point %d: got center %d (d2=%v), want %d (d2=%v)", i, got, alt, want, wantD2)
			}
		}
	}
}

func benchNearest32(b *testing.B, asm bool) {
	if asm && !hasDotF32Asm {
		b.Skip("no assembly kernels in this build")
	}
	defer SetF32Tier(ActiveF32Tier())
	SetF32Tier(asmTier(asm))
	n, dim, k := 512, 32, 32
	_, pts := randMatrix32Pair(n, dim, 1)
	_, ctr := randMatrix32Pair(k, dim, 2)
	cNorms := RowSqNorms(ctr, nil)
	idx := make([]int32, n)
	d2 := make([]float32, n)
	sc := GetScratch[float32]()
	defer sc.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NearestBlocked(pts, ctr, cNorms, idx, d2, sc)
	}
}

func BenchmarkNearestBlocked32Go(b *testing.B)  { benchNearest32(b, false) }
func BenchmarkNearestBlocked32Asm(b *testing.B) { benchNearest32(b, true) }

func BenchmarkNearestBlocked64(b *testing.B) {
	n, dim, k := 512, 32, 32
	pts, _ := randMatrix32Pair(n, dim, 1)
	ctr, _ := randMatrix32Pair(k, dim, 2)
	cNorms := RowSqNorms(ctr, nil)
	idx := make([]int32, n)
	d2 := make([]float64, n)
	sc := GetScratch[float64]()
	defer sc.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NearestBlocked(pts, ctr, cNorms, idx, d2, sc)
	}
}
