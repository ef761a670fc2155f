package dsio

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"time"
	"unsafe"

	"kmeansll/internal/geom"
)

// nativeLittle reports whether this machine stores float64s in the file's
// byte order, which is what makes the zero-copy view legal.
var nativeLittle = func() bool {
	var b [2]byte
	binary.NativeEndian.PutUint16(b[:], 1)
	return b[0] == 1
}()

// Reader is an open .kmd file. Dataset and Dataset32 expose its points in
// either precision; the view matching the file's stored precision may alias
// the mapped pages (ZeroCopy reports which), so it is valid only until
// Close; callers that outlive the Reader must copy. The other view is a
// lazily materialized private copy (widening for a float32 file — lossless;
// narrowing for a float64 one — the same rounding CreateFloat32 applies).
type Reader struct {
	info     Info
	ds       *geom.Dataset      // float64 view; lazy for float32 files
	ds32     *geom.Set[float32] // float32 view; lazy for float64 files
	mapped   []byte             // non-nil ⇒ munmap on Close
	zeroCopy bool
	closed   bool
	trackID  uint64 // key in the process-wide mapping tracker (track.go)
}

// register enters the reader into the process-wide mapping tracker so
// Mappings (and serving tiers built on it) can report open residency.
func (r *Reader) register(path string) {
	bytes, _ := r.info.payloadBytes()
	if r.mapped != nil {
		bytes = int64(len(r.mapped))
	}
	r.trackID = track(MappingInfo{
		Path: path, Rows: r.info.Rows, Cols: r.info.Cols,
		Weighted: r.info.Weighted, Float32: r.info.Float32,
		Bytes: bytes, ZeroCopy: r.zeroCopy, OpenedAt: time.Now().UTC(),
	})
}

// Stat reads only the 64-byte header: the O(1) probe servers use to
// validate a fit request against a dataset path without touching the
// payload.
func Stat(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return Info{}, fmt.Errorf("dsio: %s: file too short for a header", path)
	}
	in, err := decodeHeader(h[:])
	if err != nil {
		return Info{}, fmt.Errorf("dsio: %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	want, _ := in.payloadBytes()
	if st.Size() != headerSize+want {
		return Info{}, fmt.Errorf("dsio: %s: file is %d bytes, header claims %d",
			path, st.Size(), headerSize+want)
	}
	return in, nil
}

// Open maps path and returns a Reader whose Dataset aliases the mapped
// payload when the platform allows (little-endian, mmap available); the
// fallback reads and converts the file instead. Either way Open validates
// the header and the file size but not the checksum — header validation is
// O(1), and a checksum pass over gigabytes on every open would defeat the
// format; call Verify when provenance is in doubt.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return nil, fmt.Errorf("dsio: %s: file too short for a header", path)
	}
	in, err := decodeHeader(h[:])
	if err != nil {
		return nil, fmt.Errorf("dsio: %s: %w", path, err)
	}
	want, _ := in.payloadBytes()
	if st.Size() != headerSize+want {
		return nil, fmt.Errorf("dsio: %s: file is %d bytes, header claims %d",
			path, st.Size(), headerSize+want)
	}

	r := &Reader{info: in}
	if in.Rows == 0 {
		if in.Float32 {
			r.ds32 = &geom.Set[float32]{X: &geom.Mat[float32]{Rows: 0, Cols: in.Cols}}
		} else {
			r.ds = &geom.Dataset{X: &geom.Matrix{Rows: 0, Cols: in.Cols}}
		}
		r.register(path)
		return r, nil
	}
	vals := in.Rows * in.Cols
	if mmapSupported && nativeLittle {
		mapped, err := mmapFile(f, st.Size())
		if err == nil {
			body := mapped[headerSize:]
			switch {
			case in.Float32 && uintptr(unsafe.Pointer(&body[0]))%4 == 0:
				pts := unsafe.Slice((*float32)(unsafe.Pointer(&body[0])), vals)
				ds32 := &geom.Set[float32]{X: &geom.Mat[float32]{Rows: in.Rows, Cols: in.Cols, Data: pts[:vals:vals]}}
				if in.Weighted {
					// After an odd float32 payload the weight section is only
					// 4-byte aligned, so it cannot be aliased as []float64;
					// copying it is O(rows), not worth a second code path.
					ds32.Weight = make([]float64, in.Rows)
					decodeFloats(body[4*vals:], ds32.Weight)
				}
				r.ds32, r.mapped, r.zeroCopy = ds32, mapped, true
				r.register(path)
				return r, nil
			case !in.Float32 && uintptr(unsafe.Pointer(&body[0]))%8 == 0:
				floats := unsafe.Slice((*float64)(unsafe.Pointer(&body[0])), vals+weightCount(in))
				ds := &geom.Dataset{X: &geom.Matrix{Rows: in.Rows, Cols: in.Cols, Data: floats[:vals:vals]}}
				if in.Weighted {
					ds.Weight = floats[vals:]
				}
				r.ds, r.mapped, r.zeroCopy = ds, mapped, true
				r.register(path)
				return r, nil
			}
			// A page-misaligned payload cannot happen with this header size,
			// but fall through to the copying path rather than trust it.
			_ = munmap(mapped)
		}
	}

	// Copying fallback: big-endian hosts, platforms without mmap, or a
	// failed map. Reads the body once and converts.
	body := make([]byte, want)
	if _, err := io.ReadFull(f, body); err != nil {
		return nil, fmt.Errorf("dsio: %s: reading payload: %w", path, err)
	}
	ptsEnd := int(in.elemSize()) * vals
	if in.Float32 {
		x := geom.NewMat[float32](in.Rows, in.Cols)
		decodeFloats32(body[:ptsEnd], x.Data)
		ds32 := &geom.Set[float32]{X: x}
		if in.Weighted {
			ds32.Weight = make([]float64, in.Rows)
			decodeFloats(body[ptsEnd:], ds32.Weight)
		}
		r.ds32 = ds32
	} else {
		x := geom.NewMatrix(in.Rows, in.Cols)
		decodeFloats(body[:ptsEnd], x.Data)
		ds := &geom.Dataset{X: x}
		if in.Weighted {
			ds.Weight = make([]float64, in.Rows)
			decodeFloats(body[ptsEnd:], ds.Weight)
		}
		r.ds = ds
	}
	r.register(path)
	return r, nil
}

func weightCount(in Info) int {
	if in.Weighted {
		return in.Rows
	}
	return 0
}

// Info returns the header metadata.
func (r *Reader) Info() Info { return r.info }

// Dataset returns the float64 view of the file. For a float64 file it is the
// native view — aliasing the mapped pages when ZeroCopy is true, valid only
// until Close. For a float32 file it is a lazily built private copy with
// every point widened (lossless), so any float64 entry point of the repo can
// consume any .kmd file.
func (r *Reader) Dataset() *geom.Dataset {
	if r.ds == nil && r.ds32 != nil {
		r.ds = geom.WidenSet(r.ds32)
	}
	return r.ds
}

// Dataset32 returns the float32 view of the file. For a float32 file it is
// the native view — points aliasing the mapped pages when ZeroCopy is true,
// valid only until Close (weights are always a private copy). For a float64
// file it is a lazily built private copy with every point narrowed, exactly
// as CreateFloat32 would have rounded it on disk.
func (r *Reader) Dataset32() *geom.Set[float32] {
	if r.ds32 == nil && r.ds != nil {
		r.ds32 = geom.ConvertSet[float32](r.ds)
	}
	return r.ds32
}

// ZeroCopy reports whether the file's native-precision view (Dataset for a
// float64 file, Dataset32 for a float32 one) aliases the mapped file rather
// than a private copy.
func (r *Reader) ZeroCopy() bool { return r.zeroCopy }

// Verify recomputes the checksum over the payload (and weights) and compares
// it with the header. O(file size).
func (r *Reader) Verify() error {
	if r.closed {
		return fmt.Errorf("dsio: Verify on a closed reader")
	}
	var sum uint64
	if r.mapped != nil {
		sum = crc64.Checksum(r.mapped[headerSize:], crcTable)
	} else {
		// Copying-path fallback: re-encode and hash in bounded chunks, not
		// one payload-sized buffer — Verify targets exactly the files too
		// big to double up in memory.
		crc := crc64.New(crcTable)
		buf := make([]byte, 0, 1<<16)
		var wts []float64
		if r.info.Float32 {
			for vals := r.ds32.X.Data; len(vals) > 0; {
				n := min(len(vals), cap(buf)/4)
				buf = encodeFloats32(buf[:0], vals[:n])
				crc.Write(buf)
				vals = vals[n:]
			}
			wts = r.ds32.Weight
		} else {
			for vals := r.ds.X.Data; len(vals) > 0; {
				n := min(len(vals), cap(buf)/8)
				buf = encodeFloats(buf[:0], vals[:n])
				crc.Write(buf)
				vals = vals[n:]
			}
			wts = r.ds.Weight
		}
		for len(wts) > 0 {
			n := min(len(wts), cap(buf)/8)
			buf = encodeFloats(buf[:0], wts[:n])
			crc.Write(buf)
			wts = wts[n:]
		}
		sum = crc.Sum64()
	}
	if sum != r.info.Checksum {
		return fmt.Errorf("dsio: checksum mismatch: file says %#x, payload hashes to %#x", r.info.Checksum, sum)
	}
	return nil
}

// Close unmaps the file. The Dataset of a zero-copy reader must not be used
// afterwards.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	untrack(r.trackID)
	if r.mapped != nil {
		m := r.mapped
		r.mapped = nil
		return munmap(m)
	}
	return nil
}

// Save writes ds to path in one call — the non-streaming convenience
// counterpart of Create/WriteRow/Close. On any failure the half-written
// file is removed, so a failed Save never leaves an unreadable .kmd behind.
func Save(path string, ds *geom.Dataset) error {
	w, err := Create(path, ds.Dim())
	if err != nil {
		return err
	}
	for i := 0; i < ds.N(); i++ {
		if ds.Weight != nil {
			err = w.WriteWeightedRow(ds.Point(i), ds.Weight[i])
		} else {
			err = w.WriteRow(ds.Point(i))
		}
		if err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// Save32 writes ds to path as a float32-payload file, the one-call
// counterpart of CreateFloat32. Point values round-trip exactly (float32 →
// float64 → float32 is the identity); weights are stored as float64.
func Save32(path string, ds *geom.Set[float32]) error {
	w, err := CreateFloat32(path, ds.Dim())
	if err != nil {
		return err
	}
	row := make([]float64, ds.Dim())
	for i := 0; i < ds.N(); i++ {
		p := ds.Point(i)
		for j, v := range p {
			row[j] = float64(v)
		}
		if ds.Weight != nil {
			err = w.WriteWeightedRow(row, ds.Weight[i])
		} else {
			err = w.WriteRow(row)
		}
		if err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close()
}

// Load opens path and returns its dataset plus a closer that releases the
// mapping. CLI tools use it as a drop-in next to data.LoadCSV; the dataset
// must not outlive the closer's invocation.
func Load(path string) (*geom.Dataset, io.Closer, error) {
	r, err := Open(path)
	if err != nil {
		return nil, nil, err
	}
	return r.Dataset(), r, nil
}
