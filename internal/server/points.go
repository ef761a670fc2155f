package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"kmeansll/internal/geom"
)

// Points bodies — {"points": [[...], ...]}, the body of predict, transform
// and stream ingest — are decoded here without reflection. One pass over
// the request bytes checks every coordinate's grammar and computes its value
// straight into one flat row-major []float64, and the kernels get
// [][]float64 row views over it. The body, the coordinates, the
// row views and predict's assignments share one pooled pointsBody that goes
// back to the pool after the response is written. Nothing downstream keeps
// them: PredictBatchInto writes into its out slice, TransformBatch
// allocates its own rows, and a stream's coreset copies every point it
// keeps.
//
// The scanner accepts and rejects exactly what the reflective path did
// (encoding/json with DisallowUnknownFields and an EOF check, then
// checkBatch), with the same coordinates bit for bit; FuzzDecodePoints
// holds it to that. In detail:
//   - the grammar is RFC 8259's, with encoding/json's nesting limit;
//   - the one field is matched after unescaping and case folding, the way
//     encoding/json matches struct fields; any other key is unknown;
//   - a null body, null points and an absent field all mean "no points";
//   - a repeated "points" key decodes into the same slices again, as in
//     encoding/json: the last occurrence is the batch, and a null
//     coordinate keeps what that position last held (0 if nothing);
//   - a body over MaxRequestBytes is a 413, unless encoding/json would have
//     stopped first at an error in the bytes before the cap: a syntax
//     error, or a complete value that fails to decode or is followed by
//     more than whitespace.
//
// A large points array is scanned in parts on the request's workers (up to
// Config.Parallelism of them), which write their rows straight into the
// flat buffer. The array is cut at row openings found with bytes.IndexByte
// from evenly spaced offsets, each part's rows are counted up front with
// bytes.Count of '[', and so every part knows the index of its first row.
// The parts' findings — the point count, the first point without dim
// coordinates and the first decode error — merge in body order, so a body
// with a short point or an out-of-range number gets its verdict from the
// split scan. It is taken only when every row is fresh (no earlier
// occurrence of the field has stored any), the body fits under the cap,
// the counted rows fit under storeRows, and the array spans at least two
// parts of splitPartBytes; otherwise, and whenever a part does not tile the
// array exactly as the serial loop would — a syntax error or a cut body, or
// a part whose elements are not its counted rows (a null point, a nested
// array, a '[' in a string) — the array is scanned again serially from its
// first element. Either way the body gets the serial scan's status, error
// and coordinates: FuzzSplitPoints holds the split to that.
//
// A number's value is the one strconv.ParseFloat gives its token, as in
// encoding/json. While number checks the grammar it accumulates up to 19
// significant digits into a uint64 mantissa m and counts the decimal
// exponent e (fraction digits plus the exponent part). Inside an exact
// window, m·10^e is computed with integer arithmetic that is exact up to one
// final rounding to nearest-even, so it cannot differ from strconv's:
//   - e = 0: float64(m), which Go rounds correctly;
//   - m ≤ 2^53 and |e| ≤ 22: float64(m) times or divided by an exactly
//     representable power of ten (Clinger's fast path);
//   - 0 < e ≤ 19: the 128-bit product m·10^e, whose bits below the top 64
//     only break ties;
//   - −19 ≤ e < 0: the 64-bit quotient of m and 10^|e|, both normalized,
//     whose remainder only breaks ties.
//
// Nothing in the window can overflow or underflow. Everything else — more
// than 19 significant digits, or an exponent outside the window — goes to
// strconv.ParseFloat on the token, which also gives the range verdict (1e400
// is out of range). A 17-digit coordinate as encoding/json writes it is
// inside the window unless it is below 1e-6 in magnitude.

// pointsBody is one request's decode buffers, recycled through pointsPool.
type pointsBody struct {
	raw    []byte      // the request body
	flat   []float64   // the coordinates, row-major
	rows   [][]float64 // the batch: one view over flat per point
	assign []int       // predict's output
	split  arraySplit  // the state of a split scan
}

var pointsPool = sync.Pool{New: func() any { return new(pointsBody) }}

// maxPooledBytes bounds the buffers kept for reuse, so one huge request
// does not pin its memory in the pool.
const maxPooledBytes = 8 << 20

// release returns b to the pool. Call it once the response is written.
func (b *pointsBody) release() {
	if cap(b.raw) > maxPooledBytes || 8*cap(b.flat) > maxPooledBytes {
		return
	}
	pointsPool.Put(b)
}

// decodePoints reads a points body for a model or stream of dimensionality
// dim (≥ 1) and checks the batch as checkBatch does: at least one and at
// most MaxBatchPoints points, each with dim coordinates. On success the
// caller owns the buffers until it calls release.
func (s *Server) decodePoints(r *http.Request, dim int) (*pointsBody, int, error) {
	b := pointsPool.Get().(*pointsBody)
	var readErr error
	b.raw, readErr = readBody(r, b.raw, s.cfg.MaxRequestBytes)
	workers := geom.Workers(s.cfg.Parallelism)
	b.split.workers, b.split.partBytes, b.split.maxParts = workers, splitPartBytes, partsPerWorker*workers
	sc := pointsScanner{data: b.raw, dim: dim, maxPoints: s.cfg.MaxBatchPoints, flat: b.flat[:0], split: &b.split}
	if readErr != nil {
		status, err := bodyError(readErr)
		if status != http.StatusRequestEntityTooLarge {
			b.release()
			return nil, status, err
		}
		sc.overCap = err
	}
	status, err := sc.decode()
	b.flat = sc.flat
	if err != nil {
		b.release()
		return nil, status, err
	}
	b.rows = b.rows[:0]
	for i := range sc.n {
		b.rows = append(b.rows, b.flat[i*dim:(i+1)*dim:(i+1)*dim])
	}
	return b, 0, nil
}

// maxPresize bounds how much of a declared Content-Length readBody
// allocates before any byte arrives. serve-bulk's ~600 KB bodies fit.
const maxPresize = 1 << 20

// readBody reads r's body into buf's storage, presized from Content-Length
// up to maxPresize; past that the buffer grows with the bytes that arrive,
// so a client cannot make the server allocate a body it never sends. The
// cap installed by limitBody bounds the body; one over it comes back as its
// first limit bytes with the *http.MaxBytesError.
func readBody(r *http.Request, buf []byte, limit int64) ([]byte, error) {
	buf = buf[:0]
	if r.ContentLength > 0 {
		// One byte spare, so the read that reports EOF needs no growth. One
		// make, not slices.Grow: without the compiler's append-of-make
		// rewrite, which -race builds do not apply, Grow allocates twice.
		if n := int(min(r.ContentLength, limit, maxPresize)) + 1; cap(buf) < n {
			buf = make([]byte, 0, n)
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// maxNesting is encoding/json's limit on nested arrays and objects.
const maxNesting = 10000

// errEnd reports input that ended inside a value.
var errEnd = errors.New("unexpected end of JSON input")

// pointsScanner decodes one points body. Syntax errors end the scan; the
// errors encoding/json reports only after reading the whole value are kept
// in decodeErr, and the batch checks are made on the last occurrence of the
// field once the object is closed.
type pointsScanner struct {
	data []byte
	pos  int
	// overCap, when set, is the 413 error: data is only the part of the
	// body that fit under the cap.
	overCap error

	dim, maxPoints int
	// flat holds rows [0, live) of the stored coordinates. Rows from
	// storeRows on are counted but never stored: no batch that passes the
	// checks has that many points.
	flat      []float64
	live      int
	storeRows int

	// The last occurrence of the field: its number of points, and its
	// first point without dim coordinates (bad < 0: none).
	n, bad, badLen int

	decodeErr error // the first unknown field, wrong type or out-of-range number

	split *arraySplit // how a large points array may be split
}

// decode scans the whole body and returns the request's verdict.
func (s *pointsScanner) decode() (int, error) {
	// An accepted point takes at least 2·dim+1 bytes ("[0,…,0]"), so this
	// bounds the batch and the memory stored for it by the body's size.
	s.storeRows = min(s.maxPoints, len(s.data)/(2*s.dim+1))
	s.bad = -1
	err := s.top()
	switch {
	case err == errEnd && s.overCap != nil:
		return http.StatusRequestEntityTooLarge, s.overCap
	case err != nil:
		return http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", err)
	case s.decodeErr != nil:
		return http.StatusBadRequest, fmt.Errorf("invalid JSON body: %v", s.decodeErr)
	}
	s.skipSpace()
	switch {
	case s.pos < len(s.data):
		return http.StatusBadRequest, errTrailingData
	case s.overCap != nil:
		return http.StatusRequestEntityTooLarge, s.overCap
	case s.n == 0:
		return http.StatusBadRequest, errors.New("no points in request")
	case s.n > s.maxPoints:
		return http.StatusBadRequest, fmt.Errorf("%d points exceeds the per-request cap of %d", s.n, s.maxPoints)
	case s.bad >= 0:
		return http.StatusBadRequest, fmt.Errorf("point %d has %d dims, want %d", s.bad, s.badLen, s.dim)
	}
	return 0, nil
}

// setDecodeErr records err unless an earlier one is recorded.
func (s *pointsScanner) setDecodeErr(err error) {
	if s.decodeErr == nil {
		s.decodeErr = err
	}
}

// top scans the body's value: the points object, or null.
func (s *pointsScanner) top() error {
	s.skipSpace()
	if s.pos == len(s.data) {
		return errEnd
	}
	switch s.data[s.pos] {
	case '{':
		return s.object()
	case 'n':
		return s.literal("null")
	}
	s.setDecodeErr(errors.New("the body must be an object"))
	return s.skip(0)
}

// object scans the top-level object, whose one field is "points".
func (s *pointsScanner) object() error {
	for more := !s.open('}'); more; {
		key, err := s.key()
		if err != nil {
			return err
		}
		if isPointsKey(key) {
			err = s.points()
		} else {
			s.setDecodeErr(fmt.Errorf("unknown field %q", key))
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
		if more, err = s.more('}'); err != nil {
			return err
		}
	}
	return nil
}

// points scans one occurrence of the field. A later occurrence replaces the
// batch but, like encoding/json decoding into the same slices again, writes
// over the stored coordinates rather than starting from zeros.
func (s *pointsScanner) points() error {
	if s.pos == len(s.data) {
		return errEnd
	}
	s.n, s.bad = 0, -1
	switch s.data[s.pos] {
	case 'n':
		s.live = 0 // a nil slice: every position starts over at 0
		return s.literal("null")
	case '[':
	default:
		s.setDecodeErr(errors.New("points must be an array of points"))
		return s.skip(1)
	}
	if s.open(']') {
		s.live = 0 // encoding/json swaps in a fresh empty slice
		return nil
	}
	if s.live == 0 && s.scanSplit() {
		return nil
	}
	for more := true; more; s.n++ {
		if s.pos == len(s.data) {
			return errEnd
		}
		row, fresh := s.row(s.n)
		err := s.element(s.n, row, fresh)
		if err != nil {
			return err
		}
		if more, err = s.more(']'); err != nil {
			return err
		}
	}
	return nil
}

// element scans the array element at pos, point i, into row, its stored
// coordinates (see row).
func (s *pointsScanner) element(i int, row []float64, fresh bool) error {
	switch s.data[s.pos] {
	case '[':
		return s.point(i, row, fresh)
	case 'n':
		// A null point is a nil slice: no coordinates, and its positions
		// start over at 0.
		clear(row)
		s.badPoint(i, 0)
		return s.literal("null")
	}
	s.setDecodeErr(fmt.Errorf("point %d must be an array of numbers", i))
	return s.skip(2)
}

// splitPartBytes is the smallest part a points array is cut into for a
// split scan, so only arrays of at least twice its size are split. Chosen
// from a sweep from 4 to 64 KiB on a 2-vCPU Xeon container (CHANGES.md has
// the figures): arrays of 24–34 KB scanned split about as fast as
// serially, larger ones faster, and 16 KiB parts cut serve-quantize's 52 KB
// body into three, which two workers share less evenly than four.
const splitPartBytes = 12 << 10

// partsPerWorker bounds the parts of one split, and so the pooled slice
// that holds them. Parts are claimed one at a time, so the workers finish
// within about one part of each other, even when a helper starts late.
const partsPerWorker = 8

// arraySplit is how a points array may be split — workers, partBytes and
// maxParts — and the state of one split scan, shared by its goroutines.
// It lives in the pooled pointsBody, so a split allocates only for the
// helper goroutines it starts.
type arraySplit struct {
	workers   int // goroutines a split may run on; fewer than 2: no split
	partBytes int // the smallest part
	maxParts  int // the most parts one array is cut into

	data  []byte
	dim   int
	flat  []float64 // the split's rows, which the parts fill
	parts []arrayPart
	next  atomic.Int32 // the next unclaimed part
	wg    sync.WaitGroup
}

// arrayPart is one part of a split array: the elements from start up to
// end, whose first element is point first and whose rows were counted as
// rows, and what scanning them found.
type arrayPart struct {
	start, end  int
	first, rows int

	ok          bool // the part tiles the array as the serial loop would
	pos         int  // where its scan ended
	bad, badLen int  // its first point without dim coordinates (bad < 0: none)
	decodeErr   error
}

// scanSplit scans the points array whose first element is at pos in parts
// on up to split.workers goroutines, and reports whether it did: the array
// is then scanned past its closing bracket, with its rows stored and n,
// bad and decodeErr as the serial loop would leave them. When it reports
// false, the scanner is as it was and the serial loop scans the array; see
// the top of this file for when.
func (s *pointsScanner) scanSplit() bool {
	sp := s.split
	if sp.workers < 2 || s.overCap != nil {
		return false
	}
	start, end := s.pos, len(s.data)
	n := min((end-start)/sp.partBytes, sp.maxParts)
	if n < 2 {
		return false
	}
	// Cut at the first row opening at or after each of n−1 evenly spaced
	// offsets, skipping an offset the previous part already reaches past.
	parts, total := sp.parts[:0], 0
	cut := func(lo, hi int) {
		rows := bytes.Count(s.data[lo:hi], []byte{'['})
		parts = append(parts, arrayPart{start: lo, end: hi, first: total, rows: rows})
		total += rows
	}
	lo := start
	for k := 1; k < n; k++ {
		o := start + k*(end-start)/n
		if o <= lo {
			continue
		}
		i := bytes.IndexByte(s.data[o:], '[')
		if i < 0 {
			break
		}
		cut(lo, o+i)
		lo = o + i
	}
	cut(lo, end)
	sp.parts = parts
	if len(parts) < 2 || total > s.storeRows {
		return false
	}

	if need := total * s.dim; cap(s.flat) < need {
		s.flat = make([]float64, 0, need)
	}
	sp.data, sp.dim, sp.flat = s.data, s.dim, s.flat[:total*s.dim]
	sp.next.Store(0)
	helpers := min(sp.workers, len(parts)) - 1
	sp.wg.Add(helpers)
	for range helpers {
		go func() {
			defer sp.wg.Done()
			sp.run()
		}()
	}
	sp.run() // the handler's goroutine claims parts too
	sp.wg.Wait()
	sp.data, sp.flat = nil, nil

	for _, pt := range parts {
		if !pt.ok {
			return false
		}
	}
	for _, pt := range parts {
		if pt.decodeErr != nil {
			s.setDecodeErr(pt.decodeErr)
		}
		if s.bad < 0 && pt.bad >= 0 {
			s.bad, s.badLen = pt.bad, pt.badLen
		}
	}
	s.flat, s.live, s.n, s.pos = s.flat[:total*s.dim], total, total, parts[len(parts)-1].pos
	return true
}

// run scans parts until none is left unclaimed. A part that does not tile
// the array ends the split, since it will be scanned again serially.
func (sp *arraySplit) run() {
	for {
		k := int(sp.next.Add(1)) - 1
		if k >= len(sp.parts) {
			return
		}
		pt := &sp.parts[k]
		p := pointsScanner{data: sp.data, pos: pt.start, dim: sp.dim, bad: -1}
		pt.ok = p.part(pt.first, pt.rows, pt.end, sp.flat, k == len(sp.parts)-1)
		pt.pos, pt.bad, pt.badLen, pt.decodeErr = p.pos, p.bad, p.badLen, p.decodeErr
		if !pt.ok {
			sp.next.Store(int32(len(sp.parts)))
		}
	}
}

// part scans the elements of one part of a split array from pos, which is
// before end, as points first to first+rows, into their fresh rows of flat.
// It reports whether they tile the array as the serial loop would scan it:
// exactly rows elements, the last followed by a comma that reaches end or,
// in the last part, by the array's closing bracket.
func (s *pointsScanner) part(first, rows, end int, flat []float64, last bool) bool {
	for i := first; i < first+rows; i++ {
		if s.element(i, flat[i*s.dim:(i+1)*s.dim], true) != nil {
			return false
		}
		more, err := s.more(']')
		switch {
		case err != nil:
			return false
		case !more:
			return last && i == first+rows-1
		case s.pos >= end:
			return !last && s.pos == end && i == first+rows-1
		}
	}
	return false
}

// point scans point i's coordinate array into row, its stored coordinates
// (see row).
func (s *pointsScanner) point(i int, row []float64, fresh bool) error {
	j := 0
	for more := !s.open(']'); more; j++ {
		if s.pos == len(s.data) {
			return errEnd
		}
		switch c := s.data[s.pos]; {
		case c == '-' || isDigit(c):
			start := s.pos
			x, err := s.number()
			if err != nil {
				return err
			}
			if v, ok := s.value(start, x); !ok {
				s.setDecodeErr(fmt.Errorf("point %d: number %s out of range", i, s.data[start:s.pos]))
			} else if j < len(row) {
				row[j] = v
			}
		case c == 'n':
			// null leaves a float64 as it was.
			if err := s.literal("null"); err != nil {
				return err
			}
			if fresh && j < len(row) {
				row[j] = 0
			}
		default:
			s.setDecodeErr(fmt.Errorf("point %d: coordinate %d must be a number", i, j))
			if err := s.skip(3); err != nil {
				return err
			}
		}
		var err error
		if more, err = s.more(']'); err != nil {
			return err
		}
	}
	switch {
	case j == 0:
		clear(row) // encoding/json swaps in a fresh empty slice
	case fresh && j < len(row):
		clear(row[j:])
	}
	s.badPoint(i, j)
	return nil
}

// row returns the stored coordinates of point i — nil past storeRows — and
// whether they are fresh: no earlier occurrence of the field reached point
// i since the last reset, so what they hold is left over from another
// request. Every point is passed through row in order, so i is at most live.
func (s *pointsScanner) row(i int) (row []float64, fresh bool) {
	if i >= s.storeRows {
		return nil, false
	}
	if i == s.live {
		need := (i + 1) * s.dim
		if need > cap(s.flat) {
			grown := make([]float64, need, min(max(need, 2*cap(s.flat)), s.storeRows*s.dim))
			copy(grown, s.flat)
			s.flat = grown
		}
		s.flat = s.flat[:need]
		s.live++
		fresh = true
	}
	return s.flat[i*s.dim : (i+1)*s.dim], fresh
}

// badPoint notes that point i has n coordinates, if that is the first
// point of this occurrence without dim of them.
func (s *pointsScanner) badPoint(i, n int) {
	if n != s.dim && s.bad < 0 {
		s.bad, s.badLen = i, n
	}
}

// skip scans one value of any kind, checking only its syntax. depth counts
// the arrays and objects enclosing it.
func (s *pointsScanner) skip(depth int) error {
	if s.pos == len(s.data) {
		return errEnd
	}
	switch c := s.data[s.pos]; {
	case c == '{' || c == '[':
		if depth+1 > maxNesting {
			return s.syntaxError("exceeded max depth")
		}
		end := c + 2 // '[' → ']', '{' → '}'
		for more := !s.open(end); more; {
			if c == '{' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			var err error
			if more, err = s.more(end); err != nil {
				return err
			}
		}
		return nil
	case c == '"':
		return s.str()
	case c == '-' || isDigit(c):
		_, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	}
	return s.syntaxError("looking for beginning of value")
}

// open steps into the array or object at pos, whose closing byte is end,
// and reports whether it is empty; an empty one is stepped out of too.
func (s *pointsScanner) open(end byte) bool {
	s.pos++
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == end {
		s.pos++
		return true
	}
	return false
}

// key scans an object key and the colon after it, returning the key's raw
// bytes between its quotes.
func (s *pointsScanner) key() ([]byte, error) {
	if s.pos == len(s.data) {
		return nil, errEnd
	}
	if s.data[s.pos] != '"' {
		return nil, s.syntaxError("looking for beginning of object key string")
	}
	start := s.pos
	if err := s.str(); err != nil {
		return nil, err
	}
	key := s.data[start+1 : s.pos-1]
	s.skipSpace()
	if s.pos == len(s.data) {
		return nil, errEnd
	}
	if s.data[s.pos] != ':' {
		return nil, s.syntaxError("after object key")
	}
	s.pos++
	s.skipSpace()
	return key, nil
}

// more scans what follows an element of an array or object whose closing
// byte is end: a comma, with another element to come (true), or end.
func (s *pointsScanner) more(end byte) (bool, error) {
	s.skipSpace()
	if s.pos == len(s.data) {
		return false, errEnd
	}
	switch s.data[s.pos] {
	case ',':
		s.pos++
		s.skipSpace()
		return true, nil
	case end:
		s.pos++
		return false, nil
	}
	if end == '}' {
		return false, s.syntaxError("after object key:value pair")
	}
	return false, s.syntaxError("after array element")
}

// A decimal is a number as number scans it: ±m·10^exp, where m holds its
// significant digits. long marks a number that m and exp do not hold: one
// with more than 19 significant digits, or with an exponent part too large
// to count.
type decimal struct {
	m    uint64
	exp  int
	neg  bool
	long bool
}

// maxExpPart bounds the exponent part that number counts; past it the
// number is long. Any exponent near it is far outside the exact window.
const maxExpPart = 1 << 16

// number scans an RFC 8259 number and returns it as a decimal, accumulated
// in the same pass that checks its grammar. It is the one implementation of
// the number grammar: skip calls it too, and ignores the decimal.
func (s *pointsScanner) number() (decimal, error) {
	d, p := s.data, s.pos
	var (
		m        uint64 // wraps past 19 digits, when nd marks the number long
		nd, exp  int    // significant digits; the exponent of m's last digit
		neg, big bool   // big: the exponent part passed maxExpPart
	)
	if p < len(d) && d[p] == '-' {
		neg = true
		p++
	}
	switch {
	case p == len(d):
		return decimal{}, errEnd
	case d[p] == '0':
		p++
	case '1' <= d[p] && d[p] <= '9':
		q := p
		p, m = digits(d, p, 0)
		nd = p - q
	default:
		s.pos = p
		return decimal{}, s.syntaxError("in numeric literal")
	}
	if p < len(d) && d[p] == '.' {
		p++
		if p == len(d) {
			return decimal{}, errEnd
		}
		if !isDigit(d[p]) {
			s.pos = p
			return decimal{}, s.syntaxError("after decimal point in numeric literal")
		}
		q := p
		if m == 0 {
			// The zeros after "0." are not significant.
			for p < len(d) && d[p] == '0' {
				p++
			}
		}
		r := p
		p, m = digits(d, p, m)
		nd += p - r
		exp = q - p
	}
	if p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		p++
		eneg := p < len(d) && d[p] == '-'
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		if p == len(d) {
			return decimal{}, errEnd
		}
		if !isDigit(d[p]) {
			s.pos = p
			return decimal{}, s.syntaxError("in exponent of numeric literal")
		}
		e := 0
		for ; p < len(d) && isDigit(d[p]); p++ {
			if e < maxExpPart {
				e = e*10 + int(d[p]-'0')
			} else {
				big = true
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	s.pos = p
	return decimal{m: m, exp: exp, neg: neg, long: nd > 19 || big}, s.endOfScalar()
}

// digits scans the run of digits at p, accumulating them onto m, and
// returns the position past the run and the new m.
func digits(d []byte, p int, m uint64) (int, uint64) {
	for ; p < len(d) && isDigit(d[p]); p++ {
		m = m*10 + uint64(d[p]-'0')
	}
	return p, m
}

// value returns the number scanned from start to pos, which number returned
// as x: computed in the exact window when it covers x, else by
// strconv.ParseFloat on the token. ok is false when strconv reports the
// number out of range.
func (s *pointsScanner) value(start int, x decimal) (v float64, ok bool) {
	if v, ok := x.float(); ok {
		return v, true
	}
	v, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	return v, err == nil
}

// float returns x's value, correctly rounded, if x is inside the exact
// window described at the top of this file; ok is false if it is not.
func (x decimal) float() (v float64, ok bool) {
	if x.long {
		return 0, false
	}
	switch e := x.exp; {
	case x.m == 0: // ±0, whatever the exponent
	case e == 0:
		v = float64(x.m)
	case x.m <= 1<<53 && 0 < e && e <= 22:
		v = float64(x.m) * pow10f[e]
	case x.m <= 1<<53 && -22 <= e && e < 0:
		v = float64(x.m) / pow10f[-e]
	case 0 < e && e <= 19:
		v = mulPow10(x.m, e)
	case -19 <= e && e < 0:
		v = divPow10(x.m, -e)
	default:
		return 0, false
	}
	if x.neg {
		v = -v
	}
	return v, true
}

// mulPow10 returns m·10^e for m > 0 and 0 < e ≤ 19, correctly rounded. The
// 128-bit product is exact; its top 64 bits are rounded and the bits below
// them only break a tie.
func mulPow10(m uint64, e int) float64 {
	hi, lo := bits.Mul64(m, pow10u[e])
	if hi == 0 {
		return float64(lo)
	}
	z := bits.LeadingZeros64(hi)
	return roundTop(hi<<z|lo>>(64-z), lo<<z != 0, 64-z)
}

// divPow10 returns m/10^e for m > 0 and 0 < e ≤ 19, correctly rounded. With
// both operands normalized, the 64-bit quotient has its top bit set and is
// rounded; a nonzero remainder only breaks a tie.
func divPow10(m uint64, e int) float64 {
	d := pow10u[e]
	zm, zd := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
	m, d = m<<zm, d<<zd
	exp := zd - zm - 64
	hi, lo := m, uint64(0)
	if m >= d {
		hi, lo = m>>1, m<<63
		exp++
	}
	q, r := bits.Div64(hi, lo, d)
	return roundTop(q, r != 0, exp)
}

// roundTop returns (top+δ)·2^exp rounded to the nearest float64, ties to
// even, where top has its high bit set, 0 ≤ δ < 1, and sticky reports
// δ > 0. The callers' values are far inside float64's normal range.
func roundTop(top uint64, sticky bool, exp int) float64 {
	const half = 1 << 10 // half an ulp, in the 11 bits below the mantissa
	mant, rest := top>>11, top&(2*half-1)
	if rest > half || rest == half && (sticky || mant&1 != 0) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			exp++
		}
	}
	return math.Float64frombits(uint64(exp+11+52+1023)<<52 | mant&(1<<52-1))
}

// pow10u and pow10f are the powers of ten the exact window multiplies and
// divides by; each is exact in its type.
var (
	pow10u = [20]uint64{
		1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	}
	pow10f = [23]float64{
		1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
	}
)

// literal scans the literal word (true, false or null).
func (s *pointsScanner) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if s.pos == len(s.data) {
			return errEnd
		}
		if s.data[s.pos] != word[i] {
			return s.syntaxError(fmt.Sprintf("in literal %s (expecting %q)", word, word[i]))
		}
		s.pos++
	}
	return s.endOfScalar()
}

// endOfScalar reports errEnd when a string, number or literal just scanned
// ends where a body cut at the cap ends. encoding/json reads one byte past
// a scalar before it counts the value as complete, so there the cap is hit
// first.
func (s *pointsScanner) endOfScalar() error {
	if s.pos == len(s.data) && s.overCap != nil {
		return errEnd
	}
	return nil
}

// str scans a string from its opening quote to just past its closing one.
func (s *pointsScanner) str() error {
	s.pos++
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.endOfScalar()
		case c == '\\':
			s.pos++
			if s.pos == len(s.data) {
				return errEnd
			}
			switch s.data[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for range 4 {
					if s.pos == len(s.data) {
						return errEnd
					}
					if !isHex(s.data[s.pos]) {
						return s.syntaxError("in \\u hexadecimal character escape")
					}
					s.pos++
				}
			default:
				return s.syntaxError("in string escape code")
			}
		case c < ' ':
			return s.syntaxError("in string literal")
		default:
			s.pos++
		}
	}
	return errEnd
}

// skipSpace advances past JSON whitespace.
func (s *pointsScanner) skipSpace() {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
}

// syntaxError describes the byte at pos, which breaks the grammar.
func (s *pointsScanner) syntaxError(context string) error {
	return fmt.Errorf("invalid character %q at offset %d %s", rune(s.data[s.pos]), s.pos, context)
}

// isPointsKey reports whether an object key, given as the raw bytes between
// its quotes, names the points field as encoding/json matches struct
// fields: once unescaped, it folds to the same string as "points".
func isPointsKey(raw []byte) bool {
	const folded = "POINTS"
	k := 0
	for i := 0; i < len(raw); k++ {
		var r rune
		switch c := raw[i]; {
		case c == '\\':
			// The other escapes stand for punctuation and control
			// characters, and a surrogate half for U+FFFD or a rune
			// outside the BMP: none folds to a letter of the name.
			if raw[i+1] != 'u' {
				return false
			}
			u, _ := strconv.ParseUint(string(raw[i+2:i+6]), 16, 16)
			if r = rune(u); utf16.IsSurrogate(r) {
				return false
			}
			i += 6
		case c < utf8.RuneSelf:
			r = rune(c)
			i++
		default:
			var size int
			r, size = utf8.DecodeRune(raw[i:])
			i += size
		}
		if k == len(folded) || foldRune(r) != rune(folded[k]) {
			return false
		}
	}
	return k == len(folded)
}

// foldRune folds r as encoding/json folds field names: ASCII letters to
// upper case, anything else to the smallest rune of its case-folding orbit
// (so 'ſ' folds to 'S').
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
