package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"kmeansll"
	"kmeansll/internal/core"
	"kmeansll/internal/data"
	"kmeansll/internal/mrkm"
)

// checker holds what the server's answers must be. Every fitted model must
// have the centres, bit for bit, of a reference fit of the same points and
// seed — the public kmeansll.Cluster for the local backend, and for the dist
// backend the in-process MapReduce realization (mrkm) with one mapper per
// shard, which the repository guarantees the distributed fit reproduces —
// and its cost to within the rounding of a different summation order.
// Every predict answer must name a nearest centre of the model asked.
type checker struct {
	in       *inputs
	expected [][]byte             // serve: the checked response to each body
	refs     map[uint64]modelInfo // the model each fit seed must produce
}

// newChecker computes the reference models and, for a serve workload, the
// checked response to every request body of the set-up just finished.
func newChecker(w workload, in *inputs, e *env) (*checker, error) {
	ck := &checker{in: in, refs: map[uint64]modelInfo{}}
	seeds := in.fitSeeds
	if w.serve {
		seeds = seeds[:1]
	}
	for _, s := range seeds {
		ref, err := reference(w.fit, in, s)
		if err != nil {
			return nil, fmt.Errorf("reference fit: %w", err)
		}
		ck.refs[s] = ref
	}
	if !w.serve {
		return ck, nil
	}
	mi, err := e.model(1) // the set-up fit on a fresh server
	if err == nil {
		err = ck.model(mi, mi.Cost, in.fitSeeds[0])
	}
	if err != nil {
		return nil, err
	}
	for _, b := range in.bodies {
		code, resp, err := e.do(http.MethodPost, predictPath, b.json)
		if err == nil {
			err = checkAssignments(code, resp, b.points, mi.Centers)
		}
		if err != nil {
			return nil, err
		}
		ck.expected = append(ck.expected, resp)
	}
	return ck, nil
}

// predictResponse checks a serve workload's answer to body i: the server is
// deterministic, so it must repeat the checked response byte for byte.
func (ck *checker) predictResponse(i, code int, resp []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("predict: status %d: %.200s", code, resp)
	}
	if !bytes.Equal(resp, ck.expected[i]) {
		return fmt.Errorf("predict: body %d answered differently from its checked response", i)
	}
	return nil
}

// fit checks one finished fit job: the model it published must be the
// reference for its seed, and must answer a predict correctly. The predict
// is traced like a serve op, so fit workloads also attribute the predict
// path.
func (ck *checker) fit(e *env, s fitSample, seed uint64, tr *tracer) error {
	mi, err := e.model(s.st.Version)
	if err != nil {
		return err
	}
	if err := ck.model(mi, s.st.Cost, seed); err != nil {
		return err
	}
	b := &ck.in.bodies[0]
	path := predictPath + "?version=" + strconv.Itoa(s.st.Version)
	tr.settle()
	start := time.Now()
	code, resp, err := e.do(http.MethodPost, path, b.json)
	rtt := time.Since(start)
	if err == nil {
		err = checkAssignments(code, resp, b.points, mi.Centers)
	}
	if err != nil {
		return err
	}
	if tr.on {
		mv, ok := e.srv.Registry().GetVersion(modelName, s.st.Version)
		if !ok {
			return fmt.Errorf("model version %d left the registry", s.st.Version)
		}
		return tr.predict(e, path, b, mv.Model, rtt)
	}
	return nil
}

// model compares a served model and the cost its fit reported against the
// reference for seed.
func (ck *checker) model(mi modelInfo, cost float64, seed uint64) error {
	ref := ck.refs[seed]
	if tol := 1e-9 * (1 + ref.Cost); math.Abs(cost-ref.Cost) > tol || math.Abs(mi.Cost-ref.Cost) > tol {
		return fmt.Errorf("fit seed %d: cost %v (model %v), reference %v", seed, cost, mi.Cost, ref.Cost)
	}
	if len(mi.Centers) != len(ref.Centers) {
		return fmt.Errorf("fit seed %d: %d centres, reference %d", seed, len(mi.Centers), len(ref.Centers))
	}
	for i, c := range mi.Centers {
		for j, v := range c {
			if v != ref.Centers[i][j] {
				return fmt.Errorf("fit seed %d: centre %d[%d] = %v, reference %v", seed, i, j, v, ref.Centers[i][j])
			}
		}
	}
	return nil
}

// checkAssignments checks a predict response: one assignment per point,
// each a nearest centre up to the rounding of the norm-expanded kernel.
func checkAssignments(code int, resp []byte, points, centers [][]float64) error {
	if code != http.StatusOK {
		return fmt.Errorf("predict: status %d: %.200s", code, resp)
	}
	var pr struct {
		Assignments []int `json:"assignments"`
	}
	if err := json.Unmarshal(resp, &pr); err != nil {
		return fmt.Errorf("predict response: %w", err)
	}
	if len(pr.Assignments) != len(points) {
		return fmt.Errorf("predict: %d assignments for %d points", len(pr.Assignments), len(points))
	}
	for i, p := range points {
		a := pr.Assignments[i]
		if a < 0 || a >= len(centers) {
			return fmt.Errorf("predict: point %d assigned to centre %d of %d", i, a, len(centers))
		}
		best := math.Inf(1)
		for _, c := range centers {
			best = math.Min(best, sqDist(p, c))
		}
		if got := sqDist(p, centers[a]); got > best+1e-9*(1+sqNorm(p)+sqNorm(centers[a])) {
			return fmt.Errorf("predict: point %d assigned at squared distance %v, nearest is %v", i, got, best)
		}
	}
	return nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func sqNorm(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return s
}

// reference fits the training set for seed without the server: the local
// backend through the public library, the dist backend through mrkm.
func reference(f fitShape, in *inputs, seed uint64) (modelInfo, error) {
	if f.backend != "dist" {
		m, err := kmeansll.Cluster(in.train, kmeansll.Config{K: f.k, MaxIter: f.maxIter, Seed: seed})
		if err != nil {
			return modelInfo{}, err
		}
		return modelInfo{Cost: m.Cost, Centers: m.Centers}, nil
	}
	ds, closer, err := data.Load(filepath.Join(in.dir, trainFile))
	if err != nil {
		return modelInfo{}, err
	}
	defer closer.Close()
	cluster := mrkm.Config{Mappers: f.shards}
	init, _ := mrkm.Init(ds, core.Config{K: f.k, L: 2 * float64(f.k), Seed: seed}, cluster)
	res, _ := mrkm.Lloyd(ds, init, f.maxIter, cluster)
	ref := modelInfo{Cost: res.Cost}
	for i := 0; i < res.Centers.Rows; i++ {
		ref.Centers = append(ref.Centers, append([]float64(nil), res.Centers.Row(i)...))
	}
	return ref, nil
}
