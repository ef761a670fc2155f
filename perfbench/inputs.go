package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc64"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
)

// dataShape describes a workload's points: how many train the model, and
// the distribution training and query points are both drawn from.
type dataShape struct {
	train int
	gen   func(r *rand.Rand, n int) [][]float64
}

// fitShape is the fit request a workload submits.
type fitShape struct {
	k, maxIter int
	backend    string // "local" or "dist"
	shards     int    // dist only: loopback workers
}

// predictShape is the predict request a workload sends.
type predictShape struct {
	batch  int // points per request
	bodies int // distinct request bodies, cycled
}

// numFitSeeds is how many fit seeds the fit ops cycle through. Different
// seeds keep the measured fits from being one repeated computation; a small
// fixed set lets each result be checked against a reference computed up
// front.
const numFitSeeds = 8

// trainFile is the training set's name under the server's data dir.
const trainFile = "train.kmd"

// modelName is the registry name every fit publishes to.
const modelName = "bench"

// inputs is everything a run generates from its seed.
type inputs struct {
	dir      string // the server's data dir; holds trainFile
	train    [][]float64
	fitSeeds []uint64
	bodies   []body
}

// body is one predict request.
type body struct {
	points [][]float64
	json   []byte // {"points": ...}
	// twin is the same request with one coordinate dropped from the last
	// point: the server decodes all of it, then rejects it in validation.
	twin []byte
}

// prepare generates the workload's inputs from seed and writes the training
// set where the server will look for it.
func prepare(w workload, dir string, seed uint64) (*inputs, error) {
	r := rand.New(rand.NewPCG(seed, 0x6b6d65616e736c6c))
	queries := 0
	if w.serve {
		queries = w.predict.batch * w.predict.bodies
	}
	pts := w.data.gen(r, w.data.train+queries)
	in := &inputs{dir: dir, train: pts[:w.data.train]}
	for i := 0; i < numFitSeeds; i++ {
		in.fitSeeds = append(in.fitSeeds, r.Uint64()>>1)
	}
	if w.serve {
		q := pts[w.data.train:]
		for i := 0; i < w.predict.bodies; i++ {
			in.bodies = append(in.bodies, newBody(q[i*w.predict.batch:(i+1)*w.predict.batch]))
		}
	} else {
		// A fit is checked by predicting a slice of its own training set.
		in.bodies = []body{newBody(in.train[:w.predict.batch])}
	}
	return in, writeKMD(filepath.Join(dir, trainFile), in.train)
}

func newBody(points [][]float64) body {
	short := append([][]float64(nil), points...)
	last := short[len(short)-1]
	short[len(short)-1] = last[:len(last)-1]
	return body{points: points, json: pointsJSON(points), twin: pointsJSON(short)}
}

func pointsJSON(points [][]float64) []byte {
	b, err := json.Marshal(map[string][][]float64{"points": points})
	if err != nil {
		panic(err) // finite float64s always marshal
	}
	return b
}

// fitRequest is the POST /v1/fit body for one fit of the training set.
func fitRequest(f fitShape, seed uint64) []byte {
	req := map[string]any{
		"model":   modelName,
		"dataset": map[string]string{"path": trainFile},
		"config":  map[string]any{"k": f.k, "max_iter": f.maxIter, "seed": seed},
		"backend": f.backend,
	}
	if f.shards > 0 {
		req["shards"] = f.shards
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// mixture draws points from comps unit-variance Gaussians whose means are
// drawn from N(0, spread²) per coordinate — the paper's §4.1 generator.
func mixture(dim, comps int, spread float64) func(*rand.Rand, int) [][]float64 {
	return func(r *rand.Rand, n int) [][]float64 {
		means := make([][]float64, comps)
		for i := range means {
			means[i] = make([]float64, dim)
			for j := range means[i] {
				means[i][j] = spread * r.NormFloat64()
			}
		}
		out := make([][]float64, n)
		for i := range out {
			m := means[r.IntN(comps)]
			p := make([]float64, dim)
			for j := range p {
				p[j] = m[j] + r.NormFloat64()
			}
			out[i] = p
		}
		return out
	}
}

// pixels draws integer RGB pixels: each is one of colors base colours plus
// Gaussian noise of the given standard deviation per channel, rounded and
// clamped to [0, 255] — an image's colours as a quantizer sees them.
func pixels(colors int, noise float64) func(*rand.Rand, int) [][]float64 {
	return func(r *rand.Rand, n int) [][]float64 {
		base := make([][3]float64, colors)
		for i := range base {
			for j := range base[i] {
				base[i][j] = 255 * r.Float64()
			}
		}
		out := make([][]float64, n)
		for i := range out {
			b := base[r.IntN(colors)]
			p := make([]float64, 3)
			for j := range p {
				p[j] = math.Max(0, math.Min(255, math.Round(b[j]+noise*r.NormFloat64())))
			}
			out[i] = p
		}
		return out
	}
}

// writeKMD writes points as an unweighted float64 .kmd file, following the
// byte layout in docs/kmd-format.md.
func writeKMD(path string, points [][]float64) error {
	cols := len(points[0])
	buf := make([]byte, 64+8*len(points)*cols)
	payload := buf[64:]
	for i, p := range points {
		for j, v := range p {
			binary.LittleEndian.PutUint64(payload[8*(i*cols+j):], math.Float64bits(v))
		}
	}
	copy(buf[0:4], "KMDF")
	binary.LittleEndian.PutUint16(buf[4:6], 1)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(points)))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(cols))
	binary.LittleEndian.PutUint64(buf[24:32], crc64.Checksum(payload, crc64.MakeTable(crc64.ECMA)))
	return os.WriteFile(path, buf, 0o644)
}
