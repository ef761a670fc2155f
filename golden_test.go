//go:build amd64 && !amd64.v3

package kmeansll

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"kmeansll/internal/core"
	"kmeansll/internal/geom"
	"kmeansll/internal/lloyd"
	"kmeansll/internal/rng"
)

// This file pins the exact bits of the float64 pipeline, and of the float32
// blocked kernels at the pure-Go tier, as FNV-64a hashes of Float64bits. A
// refactor of the engine must leave every hash unchanged; an intended
// arithmetic change shows up here as a named mismatch.
//
// The build constraint excludes targets where Go may fuse multiply-adds
// (arm64, GOAMD64=v3 and up), which changes bits legitimately.

// goldenHash accumulates values into one FNV-64a hash.
type goldenHash struct{ h uint64 }

func newGoldenHash() *goldenHash {
	f := fnv.New64a()
	return &goldenHash{h: f.Sum64()}
}

func (g *goldenHash) u64(v uint64) {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		g.h ^= v & 0xff
		g.h *= prime
		v >>= 8
	}
}

func (g *goldenHash) f64(v float64) { g.u64(math.Float64bits(v)) }

func (g *goldenHash) f64s(vs []float64) {
	g.u64(uint64(len(vs)))
	for _, v := range vs {
		g.f64(v)
	}
}

func (g *goldenHash) ints(vs []int) {
	g.u64(uint64(len(vs)))
	for _, v := range vs {
		g.u64(uint64(int64(v)))
	}
}

// goldenData returns n points in d dimensions drawn around a few offset
// centers, plus positive weights when weighted. n is chosen by the callers
// so it is never a multiple of the 128-point tile.
func goldenData(n, d int, weighted bool, seedVal uint64) ([][]float64, []float64) {
	r := rng.New(seedVal)
	const clusters = 6
	means := make([][]float64, clusters)
	for c := range means {
		means[c] = make([]float64, d)
		for j := range means[c] {
			means[c][j] = 8*r.Float64() - 4
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		m := means[r.Intn(clusters)]
		p := make([]float64, d)
		for j := range p {
			p[j] = m[j] + 0.6*r.NormFloat64()
		}
		pts[i] = p
	}
	var w []float64
	if weighted {
		w = make([]float64, n)
		for i := range w {
			w[i] = 0.25 + 2*r.Float64()
		}
	}
	return pts, w
}

// goldenWant holds the pinned hashes, keyed by case name.
var goldenWant = map[string]uint64{
	"cluster/d=16/w=false/kmeans++/elkan":             0x2926a60999d0f1c2,
	"cluster/d=16/w=false/kmeans++/hamerly":           0x2926a60999d0f1c2,
	"cluster/d=16/w=false/kmeans++/minibatch":         0x28755ce18f837e2c,
	"cluster/d=16/w=false/kmeans++/naive":             0x2926a60999d0f1c2,
	"cluster/d=16/w=false/kmeans++/spherical":         0x75164fffd4fb0bb3,
	"cluster/d=16/w=false/kmeans++/trimmed":           0x46506f805bbebe0f,
	"cluster/d=16/w=false/kmeans||/elkan":             0xaf3779879d36835e,
	"cluster/d=16/w=false/kmeans||/hamerly":           0xaf3779879d36835e,
	"cluster/d=16/w=false/kmeans||/minibatch":         0x865b6fdac0133fdf,
	"cluster/d=16/w=false/kmeans||/naive":             0xaf3779879d36835e,
	"cluster/d=16/w=false/kmeans||/spherical":         0x9be2b8cde35add7b,
	"cluster/d=16/w=false/kmeans||/trimmed":           0xbc686916018beb2f,
	"cluster/d=16/w=false/partition/elkan":            0xdf0a782d2174864c,
	"cluster/d=16/w=false/partition/hamerly":          0xdf0a782d2174864c,
	"cluster/d=16/w=false/partition/minibatch":        0x85811a64df068f56,
	"cluster/d=16/w=false/partition/naive":            0xdf0a782d2174864c,
	"cluster/d=16/w=false/partition/spherical":        0xf05456d40afd0c62,
	"cluster/d=16/w=false/partition/trimmed":          0xcffc680a716622f9,
	"cluster/d=16/w=false/random/elkan":               0x8ebc5fff502a030d,
	"cluster/d=16/w=false/random/hamerly":             0x8ebc5fff502a030d,
	"cluster/d=16/w=false/random/minibatch":           0xfb354c6811266e26,
	"cluster/d=16/w=false/random/naive":               0x8ebc5fff502a030d,
	"cluster/d=16/w=false/random/spherical":           0x98eb08095ecf46e4,
	"cluster/d=16/w=false/random/trimmed":             0x5753423929a8d1c7,
	"cluster/d=16/w=true/kmeans++/elkan":              0xd6fd7fe852f2d115,
	"cluster/d=16/w=true/kmeans++/hamerly":            0xd6fd7fe852f2d115,
	"cluster/d=16/w=true/kmeans++/minibatch":          0x6a4be8ae27ddf73d,
	"cluster/d=16/w=true/kmeans++/naive":              0xd6fd7fe852f2d115,
	"cluster/d=16/w=true/kmeans++/spherical":          0x88c229db636e9a55,
	"cluster/d=16/w=true/kmeans++/trimmed":            0xc073c18e29eb2023,
	"cluster/d=16/w=true/kmeans||/elkan":              0xd427286455ea5e19,
	"cluster/d=16/w=true/kmeans||/hamerly":            0xd427286455ea5e19,
	"cluster/d=16/w=true/kmeans||/minibatch":          0x7bc93680c2754530,
	"cluster/d=16/w=true/kmeans||/naive":              0xd427286455ea5e19,
	"cluster/d=16/w=true/kmeans||/spherical":          0xfe6a0ea3b2b2d744,
	"cluster/d=16/w=true/kmeans||/trimmed":            0xd34ddef119220d8f,
	"cluster/d=16/w=true/partition/elkan":             0x6be169e9285cfb50,
	"cluster/d=16/w=true/partition/hamerly":           0x6be169e9285cfb50,
	"cluster/d=16/w=true/partition/minibatch":         0x61b96976fd38214f,
	"cluster/d=16/w=true/partition/naive":             0x6be169e9285cfb50,
	"cluster/d=16/w=true/partition/spherical":         0x417b5c7aab2f0d82,
	"cluster/d=16/w=true/partition/trimmed":           0x664f709ff97f1b38,
	"cluster/d=16/w=true/random/elkan":                0xa16c54d382861fad,
	"cluster/d=16/w=true/random/hamerly":              0xa16c54d382861fad,
	"cluster/d=16/w=true/random/minibatch":            0xb09348e41c88d90c,
	"cluster/d=16/w=true/random/naive":                0xa16c54d382861fad,
	"cluster/d=16/w=true/random/spherical":            0x2a79a671ec665a0d,
	"cluster/d=16/w=true/random/trimmed":              0x67fd3fb58bcf397,
	"cluster/d=2/w=false/kmeans++/elkan":              0xef93f0131a502882,
	"cluster/d=2/w=false/kmeans++/hamerly":            0xef93f0131a502882,
	"cluster/d=2/w=false/kmeans++/minibatch":          0xbba5171af9872e37,
	"cluster/d=2/w=false/kmeans++/naive":              0xef93f0131a502882,
	"cluster/d=2/w=false/kmeans++/spherical":          0xf779e0d0a94d4857,
	"cluster/d=2/w=false/kmeans++/trimmed":            0x3ac4b7e254f841b,
	"cluster/d=2/w=false/kmeans||/elkan":              0xa8e9cf298aeb1cc6,
	"cluster/d=2/w=false/kmeans||/hamerly":            0xa8e9cf298aeb1cc6,
	"cluster/d=2/w=false/kmeans||/minibatch":          0xba267d67d495457c,
	"cluster/d=2/w=false/kmeans||/naive":              0xa8e9cf298aeb1cc6,
	"cluster/d=2/w=false/kmeans||/spherical":          0x3ce2a71deb5848b0,
	"cluster/d=2/w=false/kmeans||/trimmed":            0x178899e7a3207c90,
	"cluster/d=2/w=false/partition/elkan":             0x48157e497d148ca4,
	"cluster/d=2/w=false/partition/hamerly":           0x48157e497d148ca4,
	"cluster/d=2/w=false/partition/minibatch":         0xcde8923627fa3677,
	"cluster/d=2/w=false/partition/naive":             0x48157e497d148ca4,
	"cluster/d=2/w=false/partition/spherical":         0xdfd8a114ba73c765,
	"cluster/d=2/w=false/partition/trimmed":           0xa03c1704eff2acb3,
	"cluster/d=2/w=false/random/elkan":                0x821be6828d488536,
	"cluster/d=2/w=false/random/hamerly":              0x821be6828d488536,
	"cluster/d=2/w=false/random/minibatch":            0xf1a18c5548f9fd0,
	"cluster/d=2/w=false/random/naive":                0x821be6828d488536,
	"cluster/d=2/w=false/random/spherical":            0x8dec7f318d1acab4,
	"cluster/d=2/w=false/random/trimmed":              0x69fdc48654b45a7c,
	"cluster/d=2/w=true/kmeans++/elkan":               0x90be03be7c1ae6a7,
	"cluster/d=2/w=true/kmeans++/hamerly":             0x90be03be7c1ae6a7,
	"cluster/d=2/w=true/kmeans++/minibatch":           0xc429619bd436bc7b,
	"cluster/d=2/w=true/kmeans++/naive":               0x90be03be7c1ae6a7,
	"cluster/d=2/w=true/kmeans++/spherical":           0xdee8dbbc5f7bbcae,
	"cluster/d=2/w=true/kmeans++/trimmed":             0x8f0877c25aede75f,
	"cluster/d=2/w=true/kmeans||/elkan":               0x77f054cc3412d6a9,
	"cluster/d=2/w=true/kmeans||/hamerly":             0x77f054cc3412d6a9,
	"cluster/d=2/w=true/kmeans||/minibatch":           0x1b3cd1b9e12a6aeb,
	"cluster/d=2/w=true/kmeans||/naive":               0x77f054cc3412d6a9,
	"cluster/d=2/w=true/kmeans||/spherical":           0xc3310ebafaeb64f9,
	"cluster/d=2/w=true/kmeans||/trimmed":             0x9cbc870f11b97929,
	"cluster/d=2/w=true/partition/elkan":              0x9705234c3a161564,
	"cluster/d=2/w=true/partition/hamerly":            0x9705234c3a161564,
	"cluster/d=2/w=true/partition/minibatch":          0x9cfc7040d832332c,
	"cluster/d=2/w=true/partition/naive":              0x9705234c3a161564,
	"cluster/d=2/w=true/partition/spherical":          0x64c8c15ef8b64ab0,
	"cluster/d=2/w=true/partition/trimmed":            0x38398a1d05980b6,
	"cluster/d=2/w=true/random/elkan":                 0x9f8be25b93ea770b,
	"cluster/d=2/w=true/random/hamerly":               0x9f8be25b93ea770b,
	"cluster/d=2/w=true/random/minibatch":             0x1b9eff0a8a2e9261,
	"cluster/d=2/w=true/random/naive":                 0x9f8be25b93ea770b,
	"cluster/d=2/w=true/random/spherical":             0x449d6e75920f5bf7,
	"cluster/d=2/w=true/random/trimmed":               0xdb2f40738c06084d,
	"cluster/d=58/w=false/kmeans++/elkan":             0x8ec641936613b073,
	"cluster/d=58/w=false/kmeans++/hamerly":           0x8ec641936613b073,
	"cluster/d=58/w=false/kmeans++/minibatch":         0xb009378e6a3e3222,
	"cluster/d=58/w=false/kmeans++/naive":             0x8ec641936613b073,
	"cluster/d=58/w=false/kmeans++/spherical":         0x882bafecc988188d,
	"cluster/d=58/w=false/kmeans++/trimmed":           0x65d9749222165cf5,
	"cluster/d=58/w=false/kmeans||/elkan":             0x436750835758a2ff,
	"cluster/d=58/w=false/kmeans||/hamerly":           0x436750835758a2ff,
	"cluster/d=58/w=false/kmeans||/minibatch":         0xeddc19f81111cfac,
	"cluster/d=58/w=false/kmeans||/naive":             0x436750835758a2ff,
	"cluster/d=58/w=false/kmeans||/spherical":         0x61b776ff3f8cd31c,
	"cluster/d=58/w=false/kmeans||/trimmed":           0x19e81915b7712593,
	"cluster/d=58/w=false/partition/elkan":            0x7123cd4e2f5ff572,
	"cluster/d=58/w=false/partition/hamerly":          0x7123cd4e2f5ff572,
	"cluster/d=58/w=false/partition/minibatch":        0xe19e7d412f82ec0f,
	"cluster/d=58/w=false/partition/naive":            0x7123cd4e2f5ff572,
	"cluster/d=58/w=false/partition/spherical":        0x4d6dababcdc3f92f,
	"cluster/d=58/w=false/partition/trimmed":          0x310919912b4fdeb,
	"cluster/d=58/w=false/random/elkan":               0xeabba100ab07f960,
	"cluster/d=58/w=false/random/hamerly":             0xeabba100ab07f960,
	"cluster/d=58/w=false/random/minibatch":           0x753bc4d731e10293,
	"cluster/d=58/w=false/random/naive":               0xeabba100ab07f960,
	"cluster/d=58/w=false/random/spherical":           0xe5b29dc39c2d707f,
	"cluster/d=58/w=false/random/trimmed":             0xd67287dbae7835bd,
	"cluster/d=58/w=true/kmeans++/elkan":              0x782fd8143012a170,
	"cluster/d=58/w=true/kmeans++/hamerly":            0x782fd8143012a170,
	"cluster/d=58/w=true/kmeans++/minibatch":          0x7397f316d574e7f1,
	"cluster/d=58/w=true/kmeans++/naive":              0x782fd8143012a170,
	"cluster/d=58/w=true/kmeans++/spherical":          0x5fe88f5bbf60ff34,
	"cluster/d=58/w=true/kmeans++/trimmed":            0x2b6facd696e0da2b,
	"cluster/d=58/w=true/kmeans||/elkan":              0x89b2963f2f8612fa,
	"cluster/d=58/w=true/kmeans||/hamerly":            0x89b2963f2f8612fa,
	"cluster/d=58/w=true/kmeans||/minibatch":          0xc014317de06ece9e,
	"cluster/d=58/w=true/kmeans||/naive":              0x89b2963f2f8612fa,
	"cluster/d=58/w=true/kmeans||/spherical":          0x415b59ea963feacc,
	"cluster/d=58/w=true/kmeans||/trimmed":            0xe8f72ce4eca5450b,
	"cluster/d=58/w=true/partition/elkan":             0xd6dc6070b42ad8ec,
	"cluster/d=58/w=true/partition/hamerly":           0xd6dc6070b42ad8ec,
	"cluster/d=58/w=true/partition/minibatch":         0x5b3e5f828b77279b,
	"cluster/d=58/w=true/partition/naive":             0xd6dc6070b42ad8ec,
	"cluster/d=58/w=true/partition/spherical":         0x48f41d18222b07b2,
	"cluster/d=58/w=true/partition/trimmed":           0x9b16cf82a5182d07,
	"cluster/d=58/w=true/random/elkan":                0xd20e237d2f227f8c,
	"cluster/d=58/w=true/random/hamerly":              0xd20e237d2f227f8c,
	"cluster/d=58/w=true/random/minibatch":            0x4bf2b3df49977b94,
	"cluster/d=58/w=true/random/naive":                0xd20e237d2f227f8c,
	"cluster/d=58/w=true/random/spherical":            0x2553800717a8b305,
	"cluster/d=58/w=true/random/trimmed":              0xd34c772330a11c18,
	"core/d=16/w=false/bernoulli":                     0xe2fcf6ca56e2412e,
	"core/d=16/w=false/exact-l":                       0xf2f635ec39898593,
	"core/d=16/w=true/bernoulli":                      0x1c70e3a1b36192a3,
	"core/d=16/w=true/exact-l":                        0x6011d129c364e38e,
	"core/d=2/w=false/bernoulli":                      0xc580443f2493845b,
	"core/d=2/w=false/exact-l":                        0xcdf893f468683eca,
	"core/d=2/w=true/bernoulli":                       0xfc9990616c55977c,
	"core/d=2/w=true/exact-l":                         0x770a8992e1567109,
	"core/d=58/w=false/bernoulli":                     0x3fbfa4372a0f48ce,
	"core/d=58/w=false/exact-l":                       0x5023caa5f0f7427e,
	"core/d=58/w=true/bernoulli":                      0xd90401e96d923e34,
	"core/d=58/w=true/exact-l":                        0xfc362f9718def409,
	"f32/cluster/d=16/init=0/lloyd:elkan":             0xc8b1aa34d5e76b41,
	"f32/cluster/d=16/init=0/lloyd:hamerly":           0xc8b1aa34d5e76b41,
	"f32/cluster/d=16/init=0/lloyd:naive":             0xc8b1aa34d5e76b41,
	"f32/cluster/d=16/init=0/minibatch:b=64,iters=30": 0x751e828cc51a53d,
	"f32/cluster/d=16/init=0/spherical":               0xc10f30061d2f3b17,
	"f32/cluster/d=16/init=0/trimmed:0.05":            0xbf42d8c3e44fa047,
	"f32/cluster/d=16/init=1/lloyd:elkan":             0xa28354f73f8efad6,
	"f32/cluster/d=16/init=1/lloyd:hamerly":           0xa28354f73f8efad6,
	"f32/cluster/d=16/init=1/lloyd:naive":             0xa28354f73f8efad6,
	"f32/cluster/d=16/init=1/minibatch:b=64,iters=30": 0xd803be65f5a60e1,
	"f32/cluster/d=16/init=1/spherical":               0xfc62f16516693240,
	"f32/cluster/d=16/init=1/trimmed:0.05":            0xac85343c6f9a0a90,
	"f32/cluster/d=16/init=2/lloyd:elkan":             0x6f27b4248e705350,
	"f32/cluster/d=16/init=2/lloyd:hamerly":           0x6f27b4248e705350,
	"f32/cluster/d=16/init=2/lloyd:naive":             0x6f27b4248e705350,
	"f32/cluster/d=16/init=2/minibatch:b=64,iters=30": 0x2ebd05369814a2fe,
	"f32/cluster/d=16/init=2/spherical":               0xdc133d025be8946d,
	"f32/cluster/d=16/init=2/trimmed:0.05":            0xaa9fe6db17f72a33,
	"f32/cluster/d=2/init=0/lloyd:elkan":              0x10f816861a08b39a,
	"f32/cluster/d=2/init=0/lloyd:hamerly":            0x10f816861a08b39a,
	"f32/cluster/d=2/init=0/lloyd:naive":              0x10f816861a08b39a,
	"f32/cluster/d=2/init=0/minibatch:b=64,iters=30":  0x708584749a799406,
	"f32/cluster/d=2/init=0/spherical":                0x54e7d17eaa1b002b,
	"f32/cluster/d=2/init=0/trimmed:0.05":             0x5227e18cc48d582a,
	"f32/cluster/d=2/init=1/lloyd:elkan":              0x7bec80ec4aeec4ff,
	"f32/cluster/d=2/init=1/lloyd:hamerly":            0x7bec80ec4aeec4ff,
	"f32/cluster/d=2/init=1/lloyd:naive":              0x7bec80ec4aeec4ff,
	"f32/cluster/d=2/init=1/minibatch:b=64,iters=30":  0x384f604f65caffea,
	"f32/cluster/d=2/init=1/spherical":                0x78f7396d95e08b6a,
	"f32/cluster/d=2/init=1/trimmed:0.05":             0x22ff33ff8f61e954,
	"f32/cluster/d=2/init=2/lloyd:elkan":              0xe99ac6d84efae69c,
	"f32/cluster/d=2/init=2/lloyd:hamerly":            0xe99ac6d84efae69c,
	"f32/cluster/d=2/init=2/lloyd:naive":              0xe99ac6d84efae69c,
	"f32/cluster/d=2/init=2/minibatch:b=64,iters=30":  0x80de6ef429efec4b,
	"f32/cluster/d=2/init=2/spherical":                0x82f78e046438ae2a,
	"f32/cluster/d=2/init=2/trimmed:0.05":             0x38d38d7f11e6a6fa,
	"f32/cluster/d=58/init=0/lloyd:elkan":             0x90bb472b47b09a09,
	"f32/cluster/d=58/init=0/lloyd:hamerly":           0x90bb472b47b09a09,
	"f32/cluster/d=58/init=0/lloyd:naive":             0x90bb472b47b09a09,
	"f32/cluster/d=58/init=0/minibatch:b=64,iters=30": 0x55e390571747158d,
	"f32/cluster/d=58/init=0/spherical":               0x68510419be7ae3ae,
	"f32/cluster/d=58/init=0/trimmed:0.05":            0xb18f54153114af5c,
	"f32/cluster/d=58/init=1/lloyd:elkan":             0xaed105131a231217,
	"f32/cluster/d=58/init=1/lloyd:hamerly":           0xaed105131a231217,
	"f32/cluster/d=58/init=1/lloyd:naive":             0xaed105131a231217,
	"f32/cluster/d=58/init=1/minibatch:b=64,iters=30": 0xf144d8043bd3a3db,
	"f32/cluster/d=58/init=1/spherical":               0x7465061d62124c7,
	"f32/cluster/d=58/init=1/trimmed:0.05":            0xd83b2c850e09d6ed,
	"f32/cluster/d=58/init=2/lloyd:elkan":             0x298825cefb8ffcce,
	"f32/cluster/d=58/init=2/lloyd:hamerly":           0x298825cefb8ffcce,
	"f32/cluster/d=58/init=2/lloyd:naive":             0x298825cefb8ffcce,
	"f32/cluster/d=58/init=2/minibatch:b=64,iters=30": 0xae44d8527a405d8,
	"f32/cluster/d=58/init=2/spherical":               0x45a2fe4599d10bd0,
	"f32/cluster/d=58/init=2/trimmed:0.05":            0xd6bcd2364ccc6e63,
	"f32/predict/d=16/k=21":                           0xa4d3ae0c6891029d,
	"f32/predict/d=16/k=5":                            0xbe6d229c3f721bf7,
	"f32/predict/d=2/k=21":                            0x29485789a3c1f47b,
	"f32/predict/d=2/k=5":                             0xc36714222f0b5173,
	"f32/predict/d=58/k=21":                           0x5e8fa819883bfb93,
	"f32/predict/d=58/k=5":                            0x735518691c2522d0,
	"predict/blocked/k=20/d=16":                       0x464585c0f987242a,
	"predict/blocked/k=300/d=3":                       0x6335a3fc0dc80638,
	"predict/blocked/k=33/d=58":                       0x9d8483499cb47243,
	"predict/kdtree/k=300/d=3":                        0x6335a3fc0dc80638,
	"predict/scan/k=2/d=16":                           0xe1e6fdcfc78ee542,
	"predict/scan/k=3/d=2":                            0xfe4e9d48aa1e2700,
	"trace/d=16/w=false/elkan":                        0x2812618cd47581d3,
	"trace/d=16/w=false/hamerly":                      0x3bd9625746a92473,
	"trace/d=16/w=false/naive":                        0x3d5c7c1fb7898489,
	"trace/d=16/w=false/reseed/elkan":                 0xd270088261670129,
	"trace/d=16/w=false/reseed/hamerly":               0xcbfa6528fdfcfbef,
	"trace/d=16/w=false/reseed/naive":                 0x86ed3eb6a9a7ff36,
	"trace/d=16/w=false/trimmed":                      0xc3af8819e79631e8,
	"trace/d=16/w=true/elkan":                         0xef684d6be955dd53,
	"trace/d=16/w=true/hamerly":                       0xad93f899efd7ebe9,
	"trace/d=16/w=true/naive":                         0x9621dd67a12a018b,
	"trace/d=16/w=true/reseed/elkan":                  0xebb9a19cb735286a,
	"trace/d=16/w=true/reseed/hamerly":                0xe8cff3ef90ce3b39,
	"trace/d=16/w=true/reseed/naive":                  0x45f948b96b13d2cd,
	"trace/d=16/w=true/trimmed":                       0xfc67b9ded8702dbc,
	"trace/d=2/w=false/elkan":                         0x6ea3ff98d30b03c6,
	"trace/d=2/w=false/hamerly":                       0x818e902544eaefa9,
	"trace/d=2/w=false/naive":                         0xc04f431d8e563de9,
	"trace/d=2/w=false/reseed/elkan":                  0x7935c901d5464c52,
	"trace/d=2/w=false/reseed/hamerly":                0x261c07bee295927b,
	"trace/d=2/w=false/reseed/naive":                  0x88375f87c1d2035,
	"trace/d=2/w=false/trimmed":                       0xdd8b1bee6a112288,
	"trace/d=2/w=true/elkan":                          0x253fcc3ac08ceb7c,
	"trace/d=2/w=true/hamerly":                        0x8a4caf95916e12ab,
	"trace/d=2/w=true/naive":                          0x222ae851fb31bcf4,
	"trace/d=2/w=true/reseed/elkan":                   0x65c36dcac6113ddc,
	"trace/d=2/w=true/reseed/hamerly":                 0xd7ee9366ded01abc,
	"trace/d=2/w=true/reseed/naive":                   0x9b7d24cdef6f4f8c,
	"trace/d=2/w=true/trimmed":                        0x2f8d0a081ab43812,
	"trace/d=58/w=false/elkan":                        0xcfffdabc0e93866b,
	"trace/d=58/w=false/hamerly":                      0x4206ec5ad1e4ab3a,
	"trace/d=58/w=false/naive":                        0xa6f2e2b3cdba110d,
	"trace/d=58/w=false/reseed/elkan":                 0x746fd3d78cba2720,
	"trace/d=58/w=false/reseed/hamerly":               0x746fd3d78cba2720,
	"trace/d=58/w=false/reseed/naive":                 0x278db41e67d9536c,
	"trace/d=58/w=false/trimmed":                      0xcd2077233d5aa912,
	"trace/d=58/w=true/elkan":                         0xacdcfd5c4d616b5d,
	"trace/d=58/w=true/hamerly":                       0x2c5d42c5380ad5c0,
	"trace/d=58/w=true/naive":                         0x3476f9ed79285d32,
	"trace/d=58/w=true/reseed/elkan":                  0x10f73d44bdaa802c,
	"trace/d=58/w=true/reseed/hamerly":                0xff8d8023c495dc5f,
	"trace/d=58/w=true/reseed/naive":                  0x2abfa1671e478d1e,
	"trace/d=58/w=true/trimmed":                       0xa6fcac70d0038d76,
}

func checkGolden(t *testing.T, got map[string]uint64) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, ok := goldenWant[name]
		switch {
		case !ok:
			t.Errorf("no pinned hash: %q: %#x,", name, got[name])
		case want != got[name]:
			t.Errorf("hash changed: %q: %#x, want %#x", name, got[name], want)
		}
	}
}

var goldenDims = []int{2, 16, 58}

func TestGoldenCluster(t *testing.T) {
	inits := []struct {
		name string
		init InitMethod
	}{
		{"kmeans||", KMeansParallel},
		{"kmeans++", KMeansPlusPlus},
		{"random", RandomInit},
		{"partition", PartitionInit},
	}
	opts := []struct {
		name string
		opt  Optimizer
	}{
		{"naive", Lloyd{Kernel: NaiveKernel}},
		{"elkan", Lloyd{Kernel: ElkanKernel}},
		{"hamerly", Lloyd{Kernel: HamerlyKernel}},
		{"minibatch", MiniBatch{BatchSize: 64, Iters: 30}},
		{"trimmed", Trimmed{Fraction: 0.05}},
		{"spherical", Spherical{}},
	}
	got := map[string]uint64{}
	for _, d := range goldenDims {
		for _, weighted := range []bool{false, true} {
			pts, w := goldenData(901, d, weighted, uint64(100+d))
			for _, in := range inits {
				for _, op := range opts {
					m, err := Cluster(pts, Config{
						K: 7, Init: in.init, MaxIter: 25, Optimizer: op.opt,
						Weights: w, Parallelism: 2, Seed: 17,
					})
					if err != nil {
						t.Fatal(err)
					}
					h := newGoldenHash()
					for _, c := range m.Centers {
						h.f64s(c)
					}
					h.ints(m.Assign)
					h.f64(m.Cost)
					h.f64(m.SeedCost)
					h.u64(uint64(m.Iters))
					h.ints(m.Outliers)
					h.f64(m.TrimmedCost)
					h.f64(m.Cohesion)
					got[fmt.Sprintf("cluster/d=%d/w=%v/%s/%s", d, weighted, in.name, op.name)] = h.h
				}
			}
		}
	}
	checkGolden(t, got)
}

func TestGoldenCoreInit(t *testing.T) {
	got := map[string]uint64{}
	for _, d := range goldenDims {
		for _, weighted := range []bool{false, true} {
			pts, w := goldenData(1001, d, weighted, uint64(200+d))
			ds := &geom.Dataset{X: geom.FromRows(pts), Weight: w}
			for _, mode := range []core.SampleMode{core.Bernoulli, core.ExactL} {
				centers, st := core.Init(ds, core.Config{K: 9, Mode: mode, Parallelism: 2, Seed: 5})
				h := newGoldenHash()
				h.f64s(centers.Data)
				h.f64s(st.PhiTrace)
				h.u64(uint64(st.Candidates))
				h.ints(st.RoundCandidates)
				h.f64(st.SeedCost)
				got[fmt.Sprintf("core/d=%d/w=%v/%s", d, weighted, mode)] = h.h
			}
		}
	}
	checkGolden(t, got)
}

// TestGoldenCostTrace pins the per-iteration cost traces, which Model does
// not keep: the three exact Lloyd methods and Trimmed from k-means|| seeds.
// Elkan's and Hamerly's traces are upper bounds on the cost, so their rows
// differ from naive's. The reseed rows start the exact methods from the
// same seeds with center 1 a copy of center 0 and center 2 far away, so
// both start empty and are reseeded; the bound methods' traces then pin how
// their bounds restart.
func TestGoldenCostTrace(t *testing.T) {
	got := map[string]uint64{}
	for _, d := range goldenDims {
		for _, weighted := range []bool{false, true} {
			pts, w := goldenData(777, d, weighted, uint64(500+d))
			ds := &geom.Dataset{X: geom.FromRows(pts), Weight: w}
			init, _ := core.Init(ds, core.Config{K: 8, Parallelism: 2, Seed: 9})
			reseed := init.Clone()
			copy(reseed.Row(1), reseed.Row(0))
			for j := range reseed.Row(2) {
				reseed.Row(2)[j] = 1e3
			}
			for _, m := range []lloyd.Method{lloyd.Naive, lloyd.Elkan, lloyd.Hamerly} {
				for _, start := range []struct {
					name    string
					centers *geom.Matrix
				}{{"", init}, {"reseed/", reseed}} {
					res := lloyd.Refine(lloyd.Opt{Kernel: m}, ds, start.centers, lloyd.Config{MaxIter: 30, Parallelism: 2}, 0)
					h := newGoldenHash()
					h.f64s(res.Centers.Data)
					h.f64s(res.CostTrace)
					got[fmt.Sprintf("trace/d=%d/w=%v/%s%s", d, weighted, start.name, m)] = h.h
				}
			}
			trim := lloyd.Opt{Kind: lloyd.OptTrimmed, TrimFraction: 0.05}
			tr := lloyd.Refine(trim, ds, init, lloyd.Config{MaxIter: 30, Parallelism: 2}, 0)
			h := newGoldenHash()
			h.f64s(tr.Centers.Data)
			h.f64s(tr.CostTrace)
			h.ints(tr.Outliers)
			h.f64(tr.TrimmedCost)
			got[fmt.Sprintf("trace/d=%d/w=%v/trimmed", d, weighted)] = h.h
		}
	}
	checkGolden(t, got)
}

func TestGoldenPredict(t *testing.T) {
	got := map[string]uint64{}
	cases := []struct {
		name    string
		k, d    int
		useTree bool
	}{
		{"blocked", 20, 16, false},
		{"blocked", 33, 58, false},
		{"scan", 3, 2, false},
		{"scan", 2, 16, false},
		{"blocked", 300, 3, false},
		{"kdtree", 300, 3, true},
	}
	for _, tc := range cases {
		pts, _ := goldenData(517, tc.d, false, uint64(300+tc.k))
		r := rng.New(uint64(tc.k))
		centers := make([][]float64, tc.k)
		for c := range centers {
			centers[c] = append([]float64(nil), pts[r.Intn(len(pts))]...)
			centers[c][0] += 0.01 * float64(c)
		}
		m, err := NewModel(centers)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(pts))
		m.predictBatch(pts, out, 2, tc.useTree)
		h := newGoldenHash()
		h.ints(out)
		tr := m.TransformBatch(pts, 2)
		for _, row := range tr {
			h.f64s(row)
		}
		got[fmt.Sprintf("predict/%s/k=%d/d=%d", tc.name, tc.k, tc.d)] = h.h
	}
	checkGolden(t, got)
}

// TestGoldenFloat32PureGo pins the float32 blocked kernels at the pure-Go
// tier, through batch prediction and the float32 fit pipeline.
func TestGoldenFloat32PureGo(t *testing.T) {
	prev := geom.ActiveF32Tier()
	if !geom.SetF32Tier(geom.F32TierPureGo) {
		t.Fatal("pure-Go tier unavailable")
	}
	defer geom.SetF32Tier(prev)

	got := map[string]uint64{}
	for _, d := range goldenDims {
		pts, w := goldenData(645, d, true, uint64(400+d))
		for i := range pts {
			for j, v := range pts[i] {
				pts[i][j] = float64(float32(v))
			}
		}
		for _, k := range []int{5, 21} {
			m, err := NewModel(pts[:k])
			if err != nil {
				t.Fatal(err)
			}
			m.SetPredictPrecision(Float32)
			out := make([]int, len(pts))
			m.predictBatch(pts, out, 2, false)
			h := newGoldenHash()
			h.ints(out)
			got[fmt.Sprintf("f32/predict/d=%d/k=%d", d, k)] = h.h
		}
		for _, in := range []InitMethod{KMeansParallel, KMeansPlusPlus, RandomInit} {
			for _, op := range []Optimizer{
				Lloyd{Kernel: NaiveKernel}, Lloyd{Kernel: ElkanKernel}, Lloyd{Kernel: HamerlyKernel},
				MiniBatch{BatchSize: 64, Iters: 30}, Trimmed{Fraction: 0.05}, Spherical{},
			} {
				m, err := Cluster(pts, Config{
					K: 7, Init: in, MaxIter: 25, Optimizer: op,
					Weights: w, Parallelism: 2, Seed: 23, Precision: Float32,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := newGoldenHash()
				for _, c := range m.Centers {
					h.f64s(c)
				}
				h.ints(m.Assign)
				h.f64(m.Cost)
				h.f64(m.SeedCost)
				h.u64(uint64(m.Iters))
				got[fmt.Sprintf("f32/cluster/d=%d/init=%d/%s", d, in, op)] = h.h
			}
		}
	}
	checkGolden(t, got)
}
