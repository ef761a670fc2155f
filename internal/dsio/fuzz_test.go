package dsio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kmeansll/internal/geom"
)

// validFile renders a small valid .kmd as bytes for fuzz seeds.
func validFile(tb testing.TB, weighted bool) []byte {
	tb.Helper()
	x := geom.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	ds := &geom.Dataset{X: x}
	if weighted {
		ds.Weight = []float64{1, 2, 3}
	}
	path := filepath.Join(tb.TempDir(), "seed.kmd")
	if err := Save(path, ds); err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// validFile32 renders a small valid float32-payload .kmd for fuzz seeds.
func validFile32(tb testing.TB, weighted bool) []byte {
	tb.Helper()
	ds := &geom.Dataset{X: geom.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})}
	if weighted {
		ds.Weight = []float64{1, 2, 3}
	}
	path := filepath.Join(tb.TempDir(), "seed32.kmd")
	if err := Save32(path, geom.ConvertSet[float32](ds)); err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// FuzzDecode asserts the .kmd decoder never panics and never over-allocates:
// whatever it accepts must be a structurally valid dataset whose size is
// bounded by the input, and malformed headers, truncated payloads and bad
// checksums must all surface as errors.
func FuzzDecode(f *testing.F) {
	valid := validFile(f, false)
	weighted := validFile(f, true)
	f.Add(valid)
	f.Add(weighted)
	f.Add(validFile32(f, false))
	f.Add(validFile32(f, true)) // odd payload length: 4-aligned weight section
	f.Add([]byte{})
	f.Add([]byte("KMDF"))
	f.Add(valid[:headerSize])                       // header only, payload truncated
	f.Add(valid[:len(valid)-3])                     // mid-row truncation
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing garbage
	bad := append([]byte(nil), valid...)
	bad[24] ^= 0xff // checksum field
	f.Add(bad)
	huge := append([]byte(nil), valid...)
	huge[8], huge[9], huge[10] = 0xff, 0xff, 0xff // rows claims ~16M
	f.Add(huge)

	f.Fuzz(func(t *testing.T, input []byte) {
		ds, err := Decode(input)
		if err != nil {
			return
		}
		// Decode validated the header, so re-parsing it cannot fail; the
		// element width depends on its float32 flag.
		in, err := decodeHeader(input)
		if err != nil {
			t.Fatalf("Decode accepted input whose header does not parse: %v", err)
		}
		// Accepted ⇒ structurally valid and bounded by the input size.
		if ds.X.Rows*ds.X.Cols != len(ds.X.Data) {
			t.Fatalf("accepted dataset has inconsistent storage: %d×%d vs %d",
				ds.X.Rows, ds.X.Cols, len(ds.X.Data))
		}
		if ds.Weight != nil && len(ds.Weight) != ds.X.Rows {
			t.Fatalf("accepted dataset has %d weights for %d rows", len(ds.Weight), ds.X.Rows)
		}
		if int(in.elemSize())*len(ds.X.Data)+8*len(ds.Weight) != len(input)-headerSize {
			t.Fatalf("accepted dataset of %d values from %d input bytes",
				len(ds.X.Data)+len(ds.Weight), len(input))
		}
		// Accepted non-empty data must survive a write/decode round trip bit
		// for bit — through Save32 for a float32 file (whose widened values
		// narrow back exactly), Save otherwise. (An empty weighted file has
		// no rows to mark as weighted, so its write-back legitimately drops
		// the flag.)
		if ds.N() == 0 {
			return
		}
		path := filepath.Join(t.TempDir(), "rt.kmd")
		if in.Float32 {
			err = Save32(path, geom.ConvertSet[float32](ds))
		} else {
			err = Save(path, ds)
		}
		if err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, input) {
			t.Fatal("write-back differs from the accepted input")
		}
	})
}
