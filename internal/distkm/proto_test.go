package distkm

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

// oddBits are bit patterns the codec must carry untouched, where anything
// that passed values through float arithmetic or a text form could alter
// them: a quiet NaN with a payload, a signalling NaN, −0, both infinities
// and the extremes of the range.
var oddBits = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef),
	math.Float64frombits(0x7ff0_0000_0000_0001),
	math.Copysign(0, -1),
	math.Inf(1),
	math.Inf(-1),
	1.5,
	-math.MaxFloat64,
	math.SmallestNonzeroFloat64,
}

// gobRoundTrip sends in through a gob encoder and decodes it into out.
func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// Every float64 field of a message crosses gob with its exact bits, and an
// empty payload arrives as nil.
func TestWireRoundTripsBits(t *testing.T) {
	in := LoadArgs{
		Ref:     ShardRef{Fit: 9, Shard: 2},
		Lo:      40,
		Points:  Mat{Rows: 2, Cols: 4, Data: oddBits},
		Weights: Floats(oddBits[:2]),
		Float32: true,
	}
	var out LoadArgs
	gobRoundTrip(t, in, &out)
	if out.Ref != in.Ref || out.Lo != in.Lo || out.Float32 != in.Float32 ||
		out.Points.Rows != 2 || out.Points.Cols != 4 {
		t.Fatalf("header fields changed: %+v", out)
	}
	requireSameTrace(t, "Points", out.Points.Data, in.Points.Data)
	requireSameTrace(t, "Weights", out.Weights, in.Weights)

	for _, m := range []Mat{{}, {Cols: 3}, {Cols: 3, Data: []float64{}}} {
		var got UpdateArgs
		gobRoundTrip(t, UpdateArgs{New: m}, &got)
		if got.New.Rows != 0 || got.New.Cols != m.Cols || got.New.Data != nil {
			t.Fatalf("empty %d×%d Mat arrived as %+v", m.Rows, m.Cols, got.New)
		}
	}
	var w WeightsReply
	gobRoundTrip(t, WeightsReply{W: Floats{}}, &w)
	if w.W != nil {
		t.Fatalf("empty Floats arrived as %v", w.W)
	}
}

// legacyMat is Mat as gob's reflection-driven struct encoding carried it.
type legacyMat struct {
	Rows, Cols int
	Data       []float64
}

// A coordinator and a worker from different builds must fail loudly: the
// struct form of Mat does not decode into the block form, or back.
func TestMixedBuildFailsWithTypeError(t *testing.T) {
	type legacyUpdate struct {
		Ref   ShardRef
		New   legacyMat
		Reset bool
	}
	old := legacyUpdate{New: legacyMat{Rows: 1, Cols: 2, Data: []float64{1, 2}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var cur UpdateArgs
	if err := gob.NewDecoder(&buf).Decode(&cur); err == nil {
		t.Fatalf("an old-build Mat decoded as %+v", cur.New)
	}

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(UpdateArgs{New: Mat{Rows: 1, Cols: 2, Data: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	var back legacyUpdate
	if err := gob.NewDecoder(&buf).Decode(&back); err == nil {
		t.Fatalf("a new-build Mat decoded into the old struct as %+v", back.New)
	}
}

// The decoders reject what another process could send that no Mat or
// Floats encodes to.
func TestWireDecodeRejects(t *testing.T) {
	mat := func(rows, cols, values, extra int) []byte {
		b := Mat{Rows: rows, Cols: cols, Data: make([]float64, values)}
		enc, _ := b.GobEncode()
		return append(enc, make([]byte, extra)...)
	}
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"empty":            {nil, "malformed row count"},
		"no column count":  {[]byte{2}, "malformed column count"},
		"ragged block":     {mat(1, 2, 2, 3), "block of 19 bytes"},
		"short data":       {mat(2, 3, 1, 0), "does not hold"},
		"negative rows":    {mat(-1, 0, 0, 0), "does not hold"},
		"negative cols":    {mat(0, -3, 0, 0), "does not hold"},
		"product wraps":    {mat(wrapRows, 4, 0, 0), "does not hold"},
		"zero-width data":  {mat(3, 0, 1, 0), "does not hold"},
		"varint overflow":  {bytes.Repeat([]byte{0xff}, 11), "malformed row count"},
		"long data":        {mat(1, 1, 2, 0), "does not hold"},
		"rows × cols = -n": {mat(-2, -1, 2, 0), "does not hold"},
	} {
		var m Mat
		err := m.GobDecode(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Mat.GobDecode error %v, want one mentioning %q", name, err, tc.want)
		}
	}
	var f Floats
	if err := f.GobDecode(make([]byte, 12)); err == nil {
		t.Error("Floats.GobDecode accepted a 12-byte block")
	}
}

// FuzzWireDecode feeds arbitrary bytes to both decoders. Each must return
// an error or a value that satisfies the shape rule and takes no more
// memory than the input; and any bit pattern encoded and decoded again
// comes back unchanged.
func FuzzWireDecode(f *testing.F) {
	seeds := []Mat{
		{},
		{Cols: 3},
		{Rows: 1, Cols: len(oddBits), Data: oddBits},
		{Rows: 4, Cols: 2, Data: oddBits},
		{Rows: 2, Cols: 3, Data: []float64{1}},
		{Rows: -1},
		{Rows: wrapRows, Cols: 4},
	}
	for _, m := range seeds {
		b, _ := m.GobEncode()
		f.Add(b)
	}
	for _, v := range [][]float64{nil, {}, oddBits} {
		b, _ := Floats(v).GobEncode()
		f.Add(b)
	}
	f.Add([]byte{0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		var m Mat
		if err := m.GobDecode(b); err == nil {
			if !shapeFits(m.Rows, m.Cols, len(m.Data)) {
				t.Fatalf("decoded %d×%d with %d values", m.Rows, m.Cols, len(m.Data))
			}
			if 8*cap(m.Data) > len(b) {
				t.Fatalf("%d-byte input decoded into %d values of capacity", len(b), cap(m.Data))
			}
			enc, err := m.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			var again Mat
			if err := again.GobDecode(enc); err != nil {
				t.Fatalf("re-decoding an encoded Mat: %v", err)
			}
			if again.Rows != m.Rows || again.Cols != m.Cols {
				t.Fatalf("shape %d×%d came back %d×%d", m.Rows, m.Cols, again.Rows, again.Cols)
			}
			requireSameTrace(t, "Mat round trip", again.Data, m.Data)
		}

		var fl Floats
		if err := fl.GobDecode(b); err == nil {
			if 8*len(fl) != len(b) || 8*cap(fl) > len(b) {
				t.Fatalf("%d-byte block decoded into %d values (capacity %d)", len(b), len(fl), cap(fl))
			}
		} else if len(b)%8 == 0 {
			t.Fatalf("rejected a %d-byte block: %v", len(b), err)
		}

		// Whatever bits the input holds, taken as raw float64s, survive an
		// encode and a decode through either type.
		raw := decodeFloats(b[:len(b)&^7])
		enc, _ := Floats(raw).GobEncode()
		var back Floats
		if err := back.GobDecode(enc); err != nil {
			t.Fatal(err)
		}
		requireSameTrace(t, "Floats round trip", back, raw)
		enc, _ = Mat{Rows: 1, Cols: len(raw), Data: raw}.GobEncode()
		var row Mat
		if err := row.GobDecode(enc); err != nil {
			t.Fatalf("re-decoding a 1×%d Mat: %v", len(raw), err)
		}
		requireSameTrace(t, "1-row Mat round trip", row.Data, raw)
	})
}
