package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kmeansll"
	"kmeansll/internal/rng"
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
	// Numbers at the edges of the exact window (see numberRows).
	`{"points":[[1.2345678901234567891,18446744073709551615]]}`,
	`{"points":[[973846796.8583890796,-1.2345678901234567e-08]]}`,
	`{"points":[[12345678901234567e19,9007199254740993.0]]}`,
	`{"points":[[-0.0e5,1e99999999999999999999]]}`,
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

// numberRows are TestNumberExactWindow's rows and FuzzParseNumber's seeds:
// a number token and whether the exact window converts it (false: strconv
// does).
var numberRows = []struct {
	in     string
	window bool
}{
	// 15, 16, 17, 19 and 20 significant digits.
	{"123456789012345", true},
	{"1.234567890123456", true},
	{"-1.2345678901234567", true},
	{"0.1234567890123456789", true},
	{"1.2345678901234567891", false},
	// 2^53, 2^53+1, 2^64−1 and 10^19.
	{"9007199254740992", true},
	{"9007199254740993", true},
	{"18446744073709551615", false},
	{"10000000000000000000", false},
	{"1e19", true},
	{"1E+19", true},
	// Exponents ±19, ±20, ±22 and ±23: Clinger's fast path covers m ≤ 2^53 up
	// to ±22, the 128-bit product and quotient cover larger m up to ±19.
	{"1e-19", true},
	{"1e20", true},
	{"1e-20", true},
	{"1e22", true},
	{"1e-22", true},
	{"1e23", false},
	{"1e-23", false},
	{"12345678901234567e19", true},
	{"12345678901234567e-19", true},
	{"12345678901234567e20", false},
	{"12345678901234567e-20", false},
	{"0.000000000000000001234", true},
	{"0.00000000000000000001234", false},
	// Exact halfway cases, which round to even: 2^53+1 down, 2^53+3 up, then
	// the same two through the quotient, then two through the product.
	{"9007199254740995", true},
	{"9007199254740993.0", true},
	{"9007199254740995.0", true},
	{"9007199254740996e1", true},
	{"9007199254741004e1", true},
	// A nonzero remainder rounds up, in the quotient and in the product; in
	// the last four the rounding bits are exactly half an ulp and only the
	// remainder, or the product's low bits, lift them over it.
	{"9007199254740993.1", true},
	{"973846796.8583890796", true},
	{"9.334649039031245544", true},
	{"2226909525724839847e5", true},
	{"995973876412181516e17", true},
	// Zeros.
	{"0", true},
	{"-0", true},
	{"-0.0e5", true},
	{"0e400", true},
	// Out of range, underflow, subnormals and the smallest normal.
	{"1e400", false},
	{"-1e400", false},
	{"1e-400", false},
	{"4.9e-324", false},
	{"2.2250738585072011e-308", false},
	{"2.2250738585072014e-308", false},
	// An exponent part too long to count, and encoding/json's form for
	// |x| < 1e-6.
	{"1e99999999999999999999", false},
	{"0e-99999999999999999999", false},
	{"1.2345678901234567e-08", false},
}

// checkNumber fails t unless the value the scanner gives the number token
// in, scanned into s as x, has strconv.ParseFloat's bits and range verdict.
func checkNumber(t *testing.T, in []byte, s *pointsScanner, x decimal) {
	t.Helper()
	got, ok := s.value(0, x)
	want, err := strconv.ParseFloat(string(in), 64)
	if ok != (err == nil) {
		t.Fatalf("%s: in range %v, strconv.ParseFloat error %v", in, ok, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v (%#x), strconv.ParseFloat %v (%#x)", in, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestNumberExactWindow pins the exact window row by row: each number's bits
// and range verdict are strconv.ParseFloat's, and the rows inside the window
// are converted there, not by the fallback.
func TestNumberExactWindow(t *testing.T) {
	for _, row := range numberRows {
		s := pointsScanner{data: []byte(row.in)}
		x, err := s.number()
		if err != nil || s.pos != len(row.in) {
			t.Fatalf("%s: scanned %d of %d bytes, error %v", row.in, s.pos, len(row.in), err)
		}
		if _, ok := x.float(); ok != row.window {
			t.Errorf("%s: in the exact window %v, want %v", row.in, ok, row.window)
		}
		checkNumber(t, s.data, &s, x)
	}
}

// FuzzParseNumber holds the number routine to encoding/json and strconv: it
// consumes a whole input without error exactly when encoding/json accepts
// the input as one number, and then gives strconv.ParseFloat's bits and
// range verdict.
func FuzzParseNumber(f *testing.F) {
	for _, row := range numberRows {
		f.Add([]byte(row.in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := pointsScanner{data: in}
		x, err := s.number()
		whole := err == nil && s.pos == len(in)
		accepted := json.Valid(in) && (in[0] == '-' || isDigit(in[0])) && !isSpace(in[len(in)-1])
		if whole != accepted {
			t.Fatalf("%q: scanned %d of %d bytes with error %v; encoding/json accepts it as a number: %v", in, s.pos, len(in), err, accepted)
		}
		if accepted {
			checkNumber(t, in, &s, x)
		}
	})
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

// scanBody decodes body as decodePoints does, into fresh buffers, with the
// split scan configured by split (the zero arraySplit: the serial scan). It
// returns the scanner as the scan left it, its verdict, and whether the
// split scan was taken with no serial rescan.
func scanBody(body []byte, dim, maxPoints int, split *arraySplit) (sc pointsScanner, status int, err error, took bool) {
	sc = pointsScanner{data: body, dim: dim, maxPoints: maxPoints, split: split}
	status, err = sc.decode()
	took = len(split.parts) >= 2
	for _, pt := range split.parts {
		took = took && pt.ok
	}
	return sc, status, err, took
}

// tinySplit cuts an array into up to parts parts as small as one byte,
// scanned on parts goroutines.
func tinySplit(parts int) *arraySplit {
	return &arraySplit{workers: parts, partBytes: 1, maxParts: parts}
}

// checkSplitAgrees fails t unless body, scanned with split, gets the serial
// scan's status, error text and point count, and when accepted its
// coordinates bit for bit. It reports whether the split scan was taken.
func checkSplitAgrees(t *testing.T, body []byte, dim, maxPoints int, split *arraySplit) bool {
	t.Helper()
	serial, wantStatus, wantErr, _ := scanBody(body, dim, maxPoints, &arraySplit{})
	got, gotStatus, gotErr, took := scanBody(body, dim, maxPoints, split)
	if gotStatus != wantStatus || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.n != serial.n {
		t.Fatalf("body %.80q, dim %d, %d parts: split scan gives status %d (%v) and %d points, serial %d (%v) and %d",
			body, dim, len(split.parts), gotStatus, gotErr, got.n, wantStatus, wantErr, serial.n)
	}
	if wantStatus == 0 {
		for i, v := range serial.flat[:serial.n*dim] {
			if math.Float64bits(got.flat[i]) != math.Float64bits(v) {
				t.Fatalf("body %.80q, dim %d: coordinate %d is %v, serial %v", body, dim, i, got.flat[i], v)
			}
		}
	}
	return took
}

// splitCases are bodies whose points array tinySplit(4) cuts into four
// one-row parts at dim 2, and whether the split scan takes them with no
// serial rescan.
var splitCases = []struct {
	body string
	took bool
}{
	{`{"points":[[1,2],[3,4],[5,6],[7,8]]}`, true},
	{` { "points" : [ [1,2] , [3,4] ,[5,6], [7,8] ] } `, true},
	{`{"points":[[1,2],[3,4],[5,6],[7]]}`, true},                                   // a short last point
	{`{"points":[[1,2],[3,4,5],[5,6],[]]}`, true},                                  // two bad points: the first counts
	{`{"points":[[1,2],[1e400,4],[5,6],[1e400,8]]}`, true},                         // out of range
	{`{"x":1,"points":[[1,2],[1e400,4],[5,6],[7,8]]}`, true},                       // an unknown field first
	{`{"points":[[1,2],[3,"4"],[5,null],[7,8]]}`, true},                            // a string and a null coordinate
	{`{"points":[[1,2],[[3],4],[5,6],[7,8]]}`, false},                              // a nested array
	{`{"points":[[1,2],["[",4],[5,6],[7,8]]}`, false},                              // a bracket in a string
	{`{"points":[[1,2],null,[5,6],[7,8]]}`, false},                                 // a null point
	{`{"points":[[1,2],5,[5,6],[7,8]]}`, false},                                    // a number for a point
	{`{"points":[[1,2],[3,4],[5,x],[7,8]]}`, false},                                // a syntax error
	{`{"points":[[1,2],[3,4],[5,6],[7,8]`, false},                                  // a cut body
	{`{"points":[[1,2],[3,4],[5,6],[7,8]],"x":[1]}`, false},                        // a bracket after the array
	{`{"points":[[1,2]],"x":"[3,4]]"}`, false},                                     // the array closes before the last part
	{`{"points":[[0,"[2]]x"],5]}`, false},                                          // a point runs past its part's end
	{`{"points":[[1,2],[3,4],[5,6],[7,8]],"points":[[9]]}`, false},                 // a repeated field
	{`{"points":[],"points":[[1,2],[3,4],[5,6],[7,8]]}`, true},                     // no stored rows yet
	{`{"points":[[1,2],[3,4],[5,6],[7,8],[9,10],[1,2],[3,4],[5,6],[7,8]]}`, false}, // over maxPoints
}

// TestSplitScanPaths pins which bodies the split scan takes without a
// serial rescan, and that each gets the serial scan's verdict either way.
func TestSplitScanPaths(t *testing.T) {
	for _, tc := range splitCases {
		if took := checkSplitAgrees(t, []byte(tc.body), 2, 8, tinySplit(4)); took != tc.took {
			t.Errorf("body %q: split scan taken %v, want %v", tc.body, took, tc.took)
		}
	}
}

// TestSplitScanLargeBodies decodes perfbench's serve-bulk body shape and
// its twin, whose last point is one coordinate short, with the split
// decodePoints configures at 2 workers: both take the split with no
// rescan and get the serial scan's verdict.
func TestSplitScanLargeBodies(t *testing.T) {
	const dim = 58
	pts := blobPoints(512, dim, 32, 1)
	twin := append([][]float64(nil), pts...)
	twin[len(twin)-1] = twin[len(twin)-1][:dim-1]
	for _, p := range [][][]float64{pts, twin} {
		body, err := json.Marshal(pointsRequest{Points: p})
		if err != nil {
			t.Fatal(err)
		}
		split := &arraySplit{workers: 2, partBytes: splitPartBytes, maxParts: 2 * partsPerWorker}
		if !checkSplitAgrees(t, body, dim, 1000, split) {
			t.Fatalf("%d points: the split scan fell back to the serial scan", len(p))
		}
	}
}

// FuzzSplitPoints holds the split scan to the serial scan: cut into two to
// four tiny parts, every body gets the serial scan's status, error text and
// point count, and an accepted body its coordinates bit for bit.
func FuzzSplitPoints(f *testing.F) {
	for _, body := range pointsSeeds {
		f.Add([]byte(body), uint8(1), uint8(2))
	}
	for _, tc := range splitCases {
		f.Add([]byte(tc.body), uint8(1), uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, dim, parts uint8) {
		checkSplitAgrees(t, body, 1+int(dim%4), 8, tinySplit(2+int(parts%3)))
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

// TestDecodePointsDeclaredLength sends a short body that declares the whole
// request cap as its Content-Length: it must decode as usual, with the
// buffer sized by the bytes that arrive, not by the declaration.
func TestDecodePointsDeclaredLength(t *testing.T) {
	s := newTestServer(t, Config{})
	body := []byte(`{"points":[[1,2]]}`)
	r := limitedRequest(s, body)
	r.ContentLength = s.cfg.MaxRequestBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, status, err := s.decodePoints(r, 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("status %d: %v", status, err)
	}
	defer got.release()
	if len(got.rows) != 1 || got.rows[0][0] != 1 || got.rows[0][1] != 2 {
		t.Fatalf("decoded %v, want [[1 2]]", got.rows)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("decoding an %d-byte body that declared %d bytes allocated %d bytes", len(body), r.ContentLength, alloc)
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

// TestSplitDecodeConcurrentPredicts posts bodies large enough to be split
// across the request's workers to one server at once: a clean one, one
// whose last point is a coordinate short, and one with a syntax error in
// the middle of its array. Each clean answer must be Model.Predict's for
// every point, and each rejection the one a serial server gives. A part
// written by two scans, or a pooled buffer reused too early, shows up here
// as a race or a wrong answer (run with -race -count=10).
func TestSplitDecodeConcurrentPredicts(t *testing.T) {
	const (
		dim    = 8
		rounds = 6
	)
	s := newTestServer(t, Config{Parallelism: 2})
	serial := newTestServer(t, Config{Parallelism: 1})
	centers := blobPoints(16, dim, 8, 3)
	for _, srv := range []*Server{s, serial} {
		if code := do(t, srv, "PUT", "/v1/models/m", putModelRequest{Centers: centers}, nil); code != http.StatusCreated {
			t.Fatalf("PUT model: status %d", code)
		}
	}
	mv, _ := s.registry.Get("m")

	pts := blobPoints(600, dim, 8, 4)
	clean, err := json.Marshal(pointsRequest{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	short := append([][]float64(nil), pts...)
	short[len(short)-1] = short[len(short)-1][:dim-1]
	shortBody, err := json.Marshal(pointsRequest{Points: short})
	if err != nil {
		t.Fatal(err)
	}
	broken := bytes.Clone(clean)
	mid := len(broken) / 2
	broken[mid+bytes.IndexByte(broken[mid:], ',')] = 'x'
	if len(clean) < 4*splitPartBytes {
		t.Fatalf("a %d-byte body is cut into fewer than 4 parts", len(clean))
	}
	want := make([]int, len(pts))
	for i, p := range pts {
		want[i] = mv.Model.Predict(p)
	}

	post := func(srv *Server, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/models/m/predict", bytes.NewReader(body)))
		return rec
	}
	rejected := make(map[string]string) // body → the serial server's answer
	for _, body := range [][]byte{shortBody, broken} {
		rec := post(serial, body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("serial server: status %d: %s", rec.Code, rec.Body)
		}
		rejected[string(body)] = rec.Body.String()
	}

	var wg sync.WaitGroup
	for r := range rounds {
		for i, body := range [][]byte{clean, shortBody, broken} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := post(s, body)
				if i > 0 {
					if got := rec.Body.String(); rec.Code != http.StatusBadRequest || got != rejected[string(body)] {
						t.Errorf("round %d body %d: status %d %s, serial server %s", r, i, rec.Code, got, rejected[string(body)])
					}
					return
				}
				var resp predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					t.Errorf("round %d: status %d (%v): %s", r, rec.Code, err, rec.Body)
					return
				}
				if !slices.Equal(resp.Assignments, want) {
					t.Errorf("round %d: assignments differ from Model.Predict's", r)
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
// replaced, then two other shapes with the scanner: serve-quantize's 4096
// integer RGB pixels, and a 512×58 body whose every coordinate is outside
// the exact window, so strconv.ParseFloat converts it. Those rows run at
// Parallelism 1, the serial scan; the split rows decode the first two
// bodies split across 2 workers.
func BenchmarkDecodePoints(b *testing.B) {
	s := New(Config{Parallelism: 1})
	b.Cleanup(s.Close)
	split := New(Config{Parallelism: 2})
	b.Cleanup(split.Close)
	body := marshalPoints(b, blobPoints(512, 58, 32, 1))
	b.Run("scanner", func(b *testing.B) { benchDecode(b, s, body, 58) })
	b.Run("scanner-split2", func(b *testing.B) { benchDecode(b, split, body, 58) })
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for range b.N {
			if _, _, err := oracleDecodePoints(s, limitedRequest(s, body), 58); err != nil {
				b.Fatal(err)
			}
		}
	})

	r := rng.New(2)
	pixels := make([][]float64, 4096)
	for i := range pixels {
		pixels[i] = []float64{float64(r.Intn(256)), float64(r.Intn(256)), float64(r.Intn(256))}
	}
	pixelBody := marshalPoints(b, pixels)
	b.Run("pixels", func(b *testing.B) { benchDecode(b, s, pixelBody, 3) })
	b.Run("pixels-split2", func(b *testing.B) { benchDecode(b, split, pixelBody, 3) })

	// Values in [1e-8, 2e-8), which encoding/json writes as d.ddd…e-08. With
	// 16 or more significant digits the decimal exponent is -23 or below,
	// outside the window; the rare value whose shortest form is shorter is
	// moved to the next float up until it is not.
	tiny := make([][]float64, 512)
	for i := range tiny {
		tiny[i] = make([]float64, 58)
		for j := range tiny[i] {
			v := (1 + r.Float64()) * 1e-8
			for sigDigits(v) < 16 {
				v = math.Nextafter(v, 1)
			}
			tiny[i][j] = v
		}
	}
	tinyBody := marshalPoints(b, tiny)
	b.Run("fallback", func(b *testing.B) { benchDecode(b, s, tinyBody, 58) })
}

// sigDigits counts the significant digits of v's shortest decimal form.
func sigDigits(v float64) int {
	e := strconv.FormatFloat(v, 'e', -1, 64) // d.ddd…e±xx
	return len(strings.Replace(e[:strings.IndexByte(e, 'e')], ".", "", 1))
}

// marshalPoints encodes pts as a points body.
func marshalPoints(b *testing.B, pts [][]float64) []byte {
	body, err := json.Marshal(pointsRequest{Points: pts})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchDecode times decodePoints on body, a batch of dim-wide points.
func benchDecode(b *testing.B, s *Server, body []byte, dim int) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for range b.N {
		got, _, err := s.decodePoints(limitedRequest(s, body), dim)
		if err != nil {
			b.Fatal(err)
		}
		got.release()
	}
}
