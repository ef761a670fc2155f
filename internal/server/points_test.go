package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kmeansll"
)

// pointsRequest is the points body as encoding/json decodes it.
type pointsRequest struct {
	Points [][]float64 `json:"points"`
}

// oracleDecodePoints is the reflective path points bodies took before
// decodePoints: encoding/json through decodeJSON (unknown fields and
// trailing data rejected), then checkBatch.
func oracleDecodePoints(s *Server, r *http.Request, dim int) ([][]float64, int, error) {
	var req pointsRequest
	if status, err := decodeJSON(r, &req); err != nil {
		return nil, status, err
	}
	if err := s.checkBatch(req.Points, dim); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return req.Points, 0, nil
}

// limitedRequest is a POST of body under s's request cap, as limitBody
// wraps it.
func limitedRequest(s *Server, body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	r.Body = http.MaxBytesReader(nil, r.Body, s.cfg.MaxRequestBytes)
	return r
}

// checkDecodeAgrees fails t unless decodePoints and the oracle give body
// the same status and, when they accept it, the same coordinates bit for
// bit. It returns the status (0 for accepted).
func checkDecodeAgrees(t *testing.T, s *Server, body []byte, dim int) int {
	t.Helper()
	want, wantStatus, wantErr := oracleDecodePoints(s, limitedRequest(s, body), dim)
	got, gotStatus, gotErr := s.decodePoints(limitedRequest(s, body), dim)
	if gotStatus != wantStatus {
		t.Fatalf("body %q, dim %d: status %d (%v), encoding/json %d (%v)",
			body, dim, gotStatus, gotErr, wantStatus, wantErr)
	}
	if wantStatus != 0 {
		if got != nil || gotErr == nil {
			t.Fatalf("body %q, dim %d: rejected with status %d but returned (%v, %v)", body, dim, gotStatus, got, gotErr)
		}
		return wantStatus
	}
	defer got.release()
	if len(got.rows) != len(want) {
		t.Fatalf("body %q, dim %d: %d points, encoding/json %d", body, dim, len(got.rows), len(want))
	}
	for i, row := range want {
		if len(got.rows[i]) != len(row) {
			t.Fatalf("body %q, dim %d: point %d has %d coordinates, encoding/json %d", body, dim, i, len(got.rows[i]), len(row))
		}
		for j, v := range row {
			if math.Float64bits(got.rows[i][j]) != math.Float64bits(v) {
				t.Fatalf("body %q, dim %d: point %d coordinate %d is %v, encoding/json %v", body, dim, i, j, got.rows[i][j], v)
			}
		}
	}
	return 0
}

// fuzzRequestCap is FuzzDecodePoints' request cap: small, so the fuzzer
// reaches bodies over it as readily as bodies under it.
const fuzzRequestCap = 512

// pointsSeeds is FuzzDecodePoints' seed corpus, each body tried at dim 2.
var pointsSeeds = []string{
	// The points rows of TestMalformedPayloads.
	`{"points": [[1,`,
	`{"pts": [[1,2]]}`,
	`{"points": [[1,2]]} extra`,
	`{"points": [[1,2]]}]`,
	`{"points": []}`,
	`{"points": [[1,2,3]]}`,
	`{"points": [[1,2],[1]]}`,
	`{"points": [[NaN,1]]}`,
	`{"points": [[1]]}`,
	`{"points":[[1,1],[1,1],[1,1],[1,1],[1,1],[1,1],[1,1],[1,1],[1,1]]}`,
	// Accepted bodies.
	`{"points": [[1,2]]}`,
	` {"points":[[1.5,-2.25e3],[0,1E+2]]} `,
	"\t{\r\n\"points\"\n:\t[ [ 1 , 2 ] ,[3,4]]\r}\n",
	`{"points":[[1,1],[1,1],[1,1],[1,1],[1,1],[1,1],[1,1],[1,1]]}`,
	// The key, unescaped and case-folded as encoding/json matches it.
	`{"\u0070oints": [[1,2]]}`,
	`{"POINTS": [[1,2]]}`,
	`{"poinTſ": [[1,2]]}`,
	`{"poin\u0074\u017F": [[1,2]]}`,
	`{"po\u0131nts": [[1,2]]}`,
	`{"pointsſ": [[1,2]]}`,
	`{"points\u0000": [[1,2]]}`,
	`{"p\ud800oints": [[1,2]]}`,
	`{"point\"": [[1,2]]}`,
	// Repeated keys: the last is the batch, written over the earlier ones.
	`{"points":[[1,2]], "Points": [[3,4]]}`,
	`{"points":[[1,2,3]],"points":[[4,5]]}`,
	`{"points":[[1,2]],"points":[[null,7]]}`,
	`{"points":[[1,2]],"points":[],"points":[[null,7]]}`,
	`{"points":[[1,2]],"points":[null],"points":[[null,7]]}`,
	`{"points":[[1,2],[3,4]],"points":[[5,6]],"points":[[null,null],[null,8]]}`,
	`{"points":[[1]],"points":[[null,null]]}`,
	`{"points":[[1,2,3]],"points":[[4]],"points":[[null,null]]}`,
	`{"points":[[1,2]],"points":null}`,
	`{"points":[[1,2]],"points":[[1e400,2]],"points":[[3,4]]}`,
	// A null body, field, point or coordinate.
	`null`,
	` null `,
	`{"points":null}`,
	`{}`,
	`{"points":[null]}`,
	`{"points":[[1,2],null]}`,
	`{"points":[[null,1]]}`,
	`{"points":[[]]}`,
	// Numbers.
	`{"points":[[-0,0]]}`,
	`{"points":[[1E+2,1e-2]]}`,
	`{"points":[[1e400,1]]}`,
	`{"points":[[-1e400,1]]}`,
	`{"points":[[1e-400,4.9e-324]]}`,
	`{"points":[[01,1]]}`,
	`{"points":[[1.,1]]}`,
	`{"points":[[.5,1]]}`,
	`{"points":[[-,1]]}`,
	`{"points":[[+1,1]]}`,
	`{"points":[[1e,1]]}`,
	`{"points":[[0x10,1]]}`,
	`{"points":[[123456789012345678901234567890,1.7976931348623157e308]]}`,
	`{"points":[[0.1000000000000000055511151231257827,2]]}`,
	// Wrong types.
	`{"points":[["1",2]]}`,
	`{"points":[[true,false]]}`,
	`{"points":[[[1],2]]}`,
	`{"points":[[{},2]]}`,
	`{"points":[1,2]}`,
	`{"points":[0,[1,2]]}`,
	`{"points":[0,[`,
	`{"points":{"a":1}}`,
	`{"points":"x"}`,
	`[[1,2]]`,
	`5`,
	`01`,
	`"points"`,
	`true`,
	// Trailing commas and stray brackets.
	`{"points":[[1,2],]}`,
	`{"points":[[1,2,]]}`,
	`{"points":[[1,2]],}`,
	`{,"points":[[1,2]]}`,
	`{"points":[[1,2]]}}`,
	`{"points":[[1,2]]}{}`,
	`{"points":[[1,2]]} null`,
	// Strings in an unknown field.
	`{"x":"\q","points":[[1,2]]}`,
	`{"x":"\u12G4"}`,
	"{\"x\":\"a\x01\"}",
	`{"x":"\ud83d\ude00","y":[{"z":[true,false,null]}]}`,
	"{\"x\":\"\xff\xfe\"}",
	// Empty, blank and byte-order-marked bodies.
	``,
	"   \n",
	"\xef\xbb\xbf{\"points\":[[1,2]]}",
}

// decodeCase is a body and the status both decoders must give it (0 for
// accepted).
type decodeCase struct {
	body string
	want int
}

// overCapCases are bodies longer than fuzzRequestCap: whether they get a
// 413 or a 400 depends on what the bytes before the cap show.
func overCapCases() []decodeCase {
	pad := strings.Repeat(" ", fuzzRequestCap)
	blanks := func(n int) string { return strings.Repeat(" ", fuzzRequestCap-n) }
	return []decodeCase{
		{`{"points":[[1,2]]}` + pad, http.StatusRequestEntityTooLarge}, // valid, then the cap
		{`{"points":[[1,2]]} x` + pad, http.StatusBadRequest},          // trailing data first
		{`{"pts":[[1,2]]}` + pad, http.StatusBadRequest},               // a complete value with an unknown field
		{`{"pts":` + pad, http.StatusRequestEntityTooLarge},            // an unknown field in a cut value
		{`{"points":[[1,2]],"points":` + pad, http.StatusRequestEntityTooLarge},
		{`{"points":[[1,2` + strings.Repeat(",1", 300), http.StatusRequestEntityTooLarge},
		{`{"points":[[1,2],[1]]` + pad + `}`, http.StatusRequestEntityTooLarge}, // ragged, but cut
		{`{"points":[[1,x` + pad, http.StatusBadRequest},                        // a syntax error first
		{pad + `null`, http.StatusRequestEntityTooLarge},                        // only blanks before the cap
		{blanks(4) + `null  `, http.StatusRequestEntityTooLarge},                // null ends at the cap
		{blanks(1) + `55`, http.StatusRequestEntityTooLarge},                    // a number cut at the cap
		{blanks(2) + `5 5`, http.StatusBadRequest},                              // a whole number, of the wrong type
		{blanks(2) + `"" `, http.StatusRequestEntityTooLarge},                   // a string ending at the cap
		{blanks(3) + `tru` + pad, http.StatusRequestEntityTooLarge},             // a literal cut at the cap
		{blanks(5) + `tru` + pad, http.StatusBadRequest},                        // a broken literal before it
		{`{"points":[` + strings.Repeat(`[1,2],`, 100) + `[1,2]]}`, http.StatusRequestEntityTooLarge},
	}
}

// TestDecodePointsOverCap pins the verdicts of the over-cap seeds, so the
// fuzz corpus is known to reach both sides of the 413/400 line.
func TestDecodePointsOverCap(t *testing.T) {
	s := newTestServer(t, Config{MaxRequestBytes: fuzzRequestCap, MaxBatchPoints: 8})
	for _, tc := range overCapCases() {
		if got := checkDecodeAgrees(t, s, []byte(tc.body), 2); got != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, got, tc.want)
		}
	}
}

// FuzzDecodePoints holds the points scanner to the reflective path it
// replaced: for any body, both give the same status (accepted, 400 or
// 413), and for an accepted body the same coordinates bit for bit.
func FuzzDecodePoints(f *testing.F) {
	for _, body := range pointsSeeds {
		f.Add([]byte(body), uint8(1))
	}
	for _, tc := range overCapCases() {
		f.Add([]byte(tc.body), uint8(1))
	}
	s := New(Config{MaxRequestBytes: fuzzRequestCap, MaxBatchPoints: 8})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte, dim uint8) {
		checkDecodeAgrees(t, s, body, 1+int(dim%4))
	})
}

// TestDecodePointsLargeBodies covers what the fuzz cap is too small to
// reach: encoding/json's nesting limit, a body at the default cap's scale,
// and a long run of points past MaxBatchPoints.
func TestDecodePointsLargeBodies(t *testing.T) {
	const limit = 1 << 16
	s := newTestServer(t, Config{MaxRequestBytes: limit, MaxBatchPoints: 1000})
	// deep(n) opens n arrays inside the body's object: n+1 levels.
	deep := func(n int) string { return `{"x":` + strings.Repeat("[", n) }
	cases := []decodeCase{
		{deep(maxNesting-1) + strings.Repeat("]", maxNesting-1) + `}`, http.StatusBadRequest}, // at the limit: an unknown field
		{deep(maxNesting) + strings.Repeat("]", maxNesting) + `}`, http.StatusBadRequest},     // past it: a syntax error
		{deep(maxNesting-1) + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge},   // cut at the cap first
		{deep(maxNesting) + strings.Repeat(" ", limit), http.StatusBadRequest},                // too deep before the cap
		{`{"points":[` + strings.Repeat(`[],`, 5000) + `[1,2]]}`, http.StatusBadRequest},
		{`{"points":[` + strings.Repeat(`[1,2],`, 999) + `[1,2]]}`, 0},
		{`{"points":[` + strings.Repeat(`[1,2],`, 1000) + `[1,2]]}`, http.StatusBadRequest},
		{`{"points":[` + strings.Repeat(`[1,2],`, 1000) + `[1,2]],"points":[[3,4]]}`, 0},
	}
	pts := blobPoints(900, 2, 3, 9)
	b, err := json.Marshal(pointsRequest{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, decodeCase{string(b), 0})
	for _, tc := range cases {
		if got := checkDecodeAgrees(t, s, []byte(tc.body), 2); got != tc.want {
			t.Errorf("body %.40q…: status %d, want %d", tc.body, got, tc.want)
		}
	}
}

// TestPointsPoolConcurrentRequests sends predict, transform and ingest
// requests with distinct bodies to one server at once; each must get the
// answer its body gets when served alone. A pooled buffer shared by two
// live requests shows up here as a race or a wrong answer (run with -race
// -count=10).
func TestPointsPoolConcurrentRequests(t *testing.T) {
	const (
		dim     = 5
		nBodies = 6
		rounds  = 4
	)
	s := newTestServer(t, Config{})
	if code := do(t, s, "PUT", "/v1/models/m", putModelRequest{Centers: blobPoints(8, dim, 8, 3)}, nil); code != http.StatusCreated {
		t.Fatalf("PUT model: status %d", code)
	}
	spec, err := json.Marshal(StreamSpec{K: 3, Dim: dim, RefitEvery: 1 << 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		if bodies[i], err = json.Marshal(pointsRequest{Points: blobPoints(40+13*i, dim, 4, uint64(100+i))}); err != nil {
			t.Fatal(err)
		}
	}

	// answer serves body i: the predict and transform responses, then the
	// centers of a fresh stream fed the body and refitted. It reports
	// failures as errors, so goroutines can call it.
	answer := func(i int, stream string) (string, error) {
		var out bytes.Buffer
		for _, step := range []struct {
			method, path string
			body         []byte
			want         int
			keep         bool // the response is part of the answer
		}{
			{"POST", "/v1/models/m/predict", bodies[i], http.StatusOK, true},
			{"POST", "/v1/models/m/transform", bodies[i], http.StatusOK, true},
			{"POST", "/v1/streams/" + stream, spec, http.StatusCreated, false},
			{"POST", "/v1/streams/" + stream + "/ingest", bodies[i], http.StatusOK, false},
			{"POST", "/v1/streams/" + stream + "/refit", nil, http.StatusOK, false},
			{"GET", "/v1/models/" + stream + "?centers=true", nil, http.StatusOK, false},
		} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(step.method, step.path, bytes.NewReader(step.body)))
			if rec.Code != step.want {
				return "", fmt.Errorf("%s %s: status %d: %s", step.method, step.path, rec.Code, rec.Body)
			}
			if step.keep {
				out.Write(rec.Body.Bytes())
			}
			if step.method == "GET" {
				// The stream's model differs from the serial one only in
				// name and timestamps; its centers must match.
				var m modelSummary
				if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
					return "", err
				}
				centers, err := json.Marshal(m.Centers)
				if err != nil {
					return "", err
				}
				out.Write(centers)
			}
		}
		return out.String(), nil
	}

	serial := make([]string, nBodies)
	for i := range serial {
		if serial[i], err = answer(i, fmt.Sprintf("serial-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := range rounds {
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := answer(i, fmt.Sprintf("conc-%d-%d", r, i))
				if err != nil {
					t.Errorf("round %d body %d: %v", r, i, err)
				} else if got != serial[i] {
					t.Errorf("round %d body %d: concurrent answer differs from the serial one", r, i)
				}
			}()
		}
	}
	wg.Wait()
}

// TestIngestMatchesInProcessStream ingests two batches over HTTP and
// refits: the centers must be bit-identical to a StreamingClusterer fed
// the same batches in-process. A pooled point kept past its request would
// be overwritten by the second batch's decode and change them.
func TestIngestMatchesInProcessStream(t *testing.T) {
	const dim = 3
	spec := StreamSpec{K: 4, Dim: dim, RefitEvery: 1 << 20, Seed: 11}
	batches := [][][]float64{blobPoints(300, dim, 4, 21), blobPoints(300, dim, 4, 22)}

	s := newTestServer(t, Config{})
	if code := do(t, s, "POST", "/v1/streams/st", spec, nil); code != http.StatusCreated {
		t.Fatalf("create stream: status %d", code)
	}
	for i, b := range batches {
		if code := do(t, s, "POST", "/v1/streams/st/ingest", pointsRequest{Points: b}, nil); code != http.StatusOK {
			t.Fatalf("ingest batch %d: status %d", i, code)
		}
	}
	if code := do(t, s, "POST", "/v1/streams/st/refit", nil, nil); code != http.StatusOK {
		t.Fatalf("refit: status %d", code)
	}
	var served modelSummary
	if code := do(t, s, "GET", "/v1/models/st?centers=true", nil, &served); code != http.StatusOK {
		t.Fatalf("GET model: status %d", code)
	}

	sc, err := kmeansll.NewStreamingClusterer(kmeansll.StreamingConfig{K: spec.K, Dim: dim, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, p := range b {
			if err := sc.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := sc.Model()
	if err != nil {
		t.Fatal(err)
	}
	// JSON round-trips a float64 exactly, so equal encodings mean equal bits.
	got, err := json.Marshal(served.Centers)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Centers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("served centers %v, in-process %v", served.Centers, want.Centers)
	}
}

// BenchmarkDecodePoints decodes serve-bulk's body shape (512 points of the
// paper's 58 dims) with the points scanner and with the reflective path it
// replaced.
func BenchmarkDecodePoints(b *testing.B) {
	s := New(Config{})
	b.Cleanup(s.Close)
	body, err := json.Marshal(pointsRequest{Points: blobPoints(512, 58, 32, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			got, _, err := s.decodePoints(limitedRequest(s, body), 58)
			if err != nil {
				b.Fatal(err)
			}
			got.release()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			if _, _, err := oracleDecodePoints(s, limitedRequest(s, body), 58); err != nil {
				b.Fatal(err)
			}
		}
	})
}
