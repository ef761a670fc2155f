package dsio

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"kmeansll/internal/geom"
)

// bits32Equal reports bit-exact equality of two float32 slices.
func bits32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFloat32RoundTrip writes float32 files through both the streaming
// writer and Save32, then checks every read surface: Stat, Open (both
// precision views), Decode, and Verify.
func TestFloat32RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, dim   int
		weighted bool
	}{
		{"unweighted", 137, 7, false},
		{"weighted", 64, 3, true},
		{"odd_payload_weighted", 33, 5, true}, // odd #values ⇒ 4-aligned weights
		{"single", 1, 1, false},
		{"empty", 0, 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds64 := testDataset(t, tc.n, tc.dim, tc.weighted, 7)
			ds32 := geom.ConvertSet[float32](ds64)
			path := filepath.Join(t.TempDir(), "a32.kmd")
			if err := Save32(path, ds32); err != nil {
				t.Fatalf("Save32: %v", err)
			}

			in, err := Stat(path)
			if err != nil {
				t.Fatalf("Stat: %v", err)
			}
			if !in.Float32 || in.Rows != tc.n || in.Cols != tc.dim || in.Weighted != tc.weighted {
				t.Fatalf("Stat = %+v, want float32 %dx%d weighted=%v", in, tc.n, tc.dim, tc.weighted)
			}

			r, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer r.Close()
			if err := r.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			got32 := r.Dataset32()
			if !bits32Equal(got32.X.Data, ds32.X.Data) {
				t.Fatal("float32 points did not round-trip bit-exactly")
			}
			if tc.weighted && !bitsEqual(got32.Weight, ds32.Weight) {
				t.Fatal("weights did not round-trip bit-exactly")
			}
			// The widened view must hold exactly the widened stored values.
			got64 := r.Dataset()
			want64 := geom.WidenSet(ds32)
			if !bitsEqual(got64.X.Data, want64.X.Data) {
				t.Fatal("float64 view of a float32 file is not the exact widening")
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(raw)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bitsEqual(dec.X.Data, want64.X.Data) {
				t.Fatal("Decode of a float32 file is not the exact widening")
			}
		})
	}
}

// TestFloat32StreamingWriter checks CreateFloat32 + WriteRow narrows exactly
// as float32() conversion does, and matches Save32 byte for byte.
func TestFloat32StreamingWriter(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t, 50, 6, true, 3)
	streamed := filepath.Join(dir, "s.kmd")
	w, err := CreateFloat32(streamed, ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N(); i++ {
		if err := w.WriteWeightedRow(ds.Point(i), ds.Weight[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "v.kmd")
	if err := Save32(saved, geom.ConvertSet[float32](ds)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("streaming float32 writer and Save32 produced different bytes")
	}
}

// TestFloat32ZeroCopy pins the zero-copy contract for float32 files on this
// platform (linux little-endian in CI): the native view aliases the map, and
// the cross-precision views are lazily materialized copies.
func TestFloat32ZeroCopy(t *testing.T) {
	if !mmapSupported || !nativeLittle {
		t.Skip("no zero-copy on this platform")
	}
	path := filepath.Join(t.TempDir(), "z.kmd")
	ds32 := geom.ConvertSet[float32](testDataset(t, 65, 9, true, 11))
	if err := Save32(path, ds32); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.ZeroCopy() {
		t.Fatal("float32 file should open zero-copy here")
	}
	if !r.Info().Float32 {
		t.Fatal("Info.Float32 not set")
	}

	// A float64 file must answer Dataset32 with the narrowed copy.
	path64 := filepath.Join(t.TempDir(), "z64.kmd")
	ds64 := testDataset(t, 20, 4, false, 13)
	if err := Save(path64, ds64); err != nil {
		t.Fatal(err)
	}
	r64, err := Open(path64)
	if err != nil {
		t.Fatal(err)
	}
	defer r64.Close()
	want := geom.Convert[float32](ds64.X)
	if !bits32Equal(r64.Dataset32().X.Data, want.Data) {
		t.Fatal("Dataset32 of a float64 file is not the exact narrowing")
	}
}

// TestFloat32HeaderCompat checks both directions of the compatibility rule:
// files without the flag decode exactly as before, and readers reject flag
// bits they do not know.
func TestFloat32HeaderCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.kmd")
	ds := testDataset(t, 10, 3, false, 5)
	if err := Save(path, ds); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	in, err := decodeHeader(raw[:headerSize])
	if err != nil {
		t.Fatal(err)
	}
	if in.Float32 {
		t.Fatal("plain Save must not set the float32 flag")
	}
	// Flip an unknown flag bit (bit 2): decode must refuse.
	raw[6] |= 1 << 2
	if _, err := decodeHeader(raw[:headerSize]); err == nil {
		t.Fatal("decodeHeader accepted an unknown flag bit")
	}
}

// TestFloat32CorruptionRejected flips a payload byte of a float32 file and
// checks Decode and Verify both notice.
func TestFloat32CorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.kmd")
	if err := Save32(path, geom.ConvertSet[float32](testDataset(t, 31, 4, false, 9))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+17] ^= 0xFF
	if _, err := Decode(raw); err == nil {
		t.Fatal("Decode accepted a corrupted float32 payload")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path) // Open is O(1) and does not checksum
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if err := r.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted float32 payload")
	}
}
