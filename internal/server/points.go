package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Points bodies — {"points": [[...], ...]}, the body of predict, transform
// and stream ingest — are decoded here without reflection. One pass over
// the request bytes parses every coordinate with strconv.ParseFloat, as
// encoding/json does, straight into one flat row-major []float64, and the
// kernels get [][]float64 row views over it. The body, the coordinates, the
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

// pointsBody is one request's decode buffers, recycled through pointsPool.
type pointsBody struct {
	raw    []byte      // the request body
	flat   []float64   // the coordinates, row-major
	rows   [][]float64 // the batch: one view over flat per point
	assign []int       // predict's output
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
	sc := pointsScanner{data: b.raw, dim: dim, maxPoints: s.cfg.MaxBatchPoints, flat: b.flat[:0]}
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

// readBody reads r's body into buf's storage, presized from Content-Length
// (the cap installed by limitBody bounds both). A body over the cap comes
// back as its first limit bytes with the *http.MaxBytesError.
func readBody(r *http.Request, buf []byte, limit int64) ([]byte, error) {
	buf = buf[:0]
	if r.ContentLength > 0 {
		// One byte spare, so the read that reports EOF needs no growth.
		buf = slices.Grow(buf, int(min(r.ContentLength, limit))+1)
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
	for more := true; more; s.n++ {
		if s.pos == len(s.data) {
			return errEnd
		}
		row, fresh := s.row(s.n)
		var err error
		switch s.data[s.pos] {
		case '[':
			err = s.point(s.n, row, fresh)
		case 'n':
			// A null point is a nil slice: no coordinates, and its
			// positions start over at 0.
			clear(row)
			s.badPoint(s.n, 0)
			err = s.literal("null")
		default:
			s.setDecodeErr(fmt.Errorf("point %d must be an array of numbers", s.n))
			err = s.skip(2)
		}
		if err != nil {
			return err
		}
		if more, err = s.more(']'); err != nil {
			return err
		}
	}
	return nil
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
			if err := s.number(); err != nil {
				return err
			}
			v, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
			if err != nil {
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
		return s.number()
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

// number scans an RFC 8259 number.
func (s *pointsScanner) number() error {
	d, p := s.data, s.pos
	if d[p] == '-' {
		p++
	}
	switch {
	case p == len(d):
		return errEnd
	case d[p] == '0':
		p++
	case '1' <= d[p] && d[p] <= '9':
		p = skipDigits(d, p+1)
	default:
		s.pos = p
		return s.syntaxError("in numeric literal")
	}
	if p < len(d) && d[p] == '.' {
		p++
		if p == len(d) {
			return errEnd
		}
		if !isDigit(d[p]) {
			s.pos = p
			return s.syntaxError("after decimal point in numeric literal")
		}
		p = skipDigits(d, p+1)
	}
	if p < len(d) && (d[p] == 'e' || d[p] == 'E') {
		p++
		if p < len(d) && (d[p] == '+' || d[p] == '-') {
			p++
		}
		if p == len(d) {
			return errEnd
		}
		if !isDigit(d[p]) {
			s.pos = p
			return s.syntaxError("in exponent of numeric literal")
		}
		p = skipDigits(d, p+1)
	}
	s.pos = p
	return s.endOfScalar()
}

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

func skipDigits(d []byte, p int) int {
	for p < len(d) && isDigit(d[p]) {
		p++
	}
	return p
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
