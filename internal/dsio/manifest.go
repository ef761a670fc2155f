package dsio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"kmeansll/internal/geom"
)

// ManifestName is the conventional file name of a shard manifest, and
// ManifestFormat its format tag.
const (
	ManifestName   = "manifest.json"
	ManifestFormat = "kmd-manifest"
)

// ManifestShard names one part file of a sharded dataset. Paths are relative
// to the manifest's directory, so a dataset directory can be rsynced to
// worker machines and each kmworker resolves the same paths under its own
// -data-dir.
type ManifestShard struct {
	Path string `json:"path"`
	Rows int    `json:"rows"`
}

// Manifest describes a dataset split into .kmd part files. Shards are in
// global row order: shard i holds rows [Σ rows before i, … ).
type Manifest struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Rows     int             `json:"rows"`
	Cols     int             `json:"cols"`
	Weighted bool            `json:"weighted"`
	Shards   []ManifestShard `json:"shards"`

	dir string // directory the manifest was loaded from / written to
}

// Dir returns the directory the part paths are relative to.
func (m *Manifest) Dir() string { return m.dir }

// ShardPath returns the absolute path of part i.
func (m *Manifest) ShardPath(i int) string { return filepath.Join(m.dir, m.Shards[i].Path) }

// validate checks internal consistency: shard rows must sum to Rows and
// every path must stay inside the manifest directory.
func (m *Manifest) validate() error {
	if m.Format != ManifestFormat {
		return fmt.Errorf("dsio: manifest format %q, want %q", m.Format, ManifestFormat)
	}
	if m.Version != version {
		return fmt.Errorf("dsio: unsupported manifest version %d", m.Version)
	}
	if m.Cols < 1 || m.Cols > maxCols {
		return fmt.Errorf("dsio: manifest column count %d outside [1, %d]", m.Cols, maxCols)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("dsio: manifest has no shards")
	}
	total := 0
	for i, sh := range m.Shards {
		if sh.Rows < 0 {
			return fmt.Errorf("dsio: manifest shard %d has negative row count", i)
		}
		if sh.Path == "" || !filepath.IsLocal(sh.Path) {
			return fmt.Errorf("dsio: manifest shard %d path %q escapes the dataset directory", i, sh.Path)
		}
		total += sh.Rows
	}
	if total != m.Rows {
		return fmt.Errorf("dsio: manifest claims %d rows but shards sum to %d", m.Rows, total)
	}
	return nil
}

// LoadManifest reads and validates a manifest file. Part files are not
// opened; the distributed pull path opens each on the worker that owns it.
func LoadManifest(path string) (*Manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("dsio: %s: %w", path, err)
	}
	abs, err := filepath.Abs(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	m.dir = abs
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("dsio: %s: %w", path, err)
	}
	return &m, nil
}

// Split writes ds into `parts` .kmd part files plus a manifest under dir
// (created if missing) and returns the manifest. Part boundaries follow the
// same even split distkm.MakeSpans uses, so a manifest split for W workers
// usually maps each worker span onto exactly one file.
func Split(ds *geom.Dataset, dir string, parts int) (*Manifest, error) {
	n := ds.N()
	if n == 0 {
		return nil, fmt.Errorf("dsio: cannot split an empty dataset")
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Format: ManifestFormat, Version: version,
		Rows: n, Cols: ds.Dim(), Weighted: ds.Weight != nil,
		dir: abs,
	}
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		name := fmt.Sprintf("part-%04d%s", p, Ext)
		w, err := Create(filepath.Join(abs, name), ds.Dim())
		if err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			if ds.Weight != nil {
				err = w.WriteWeightedRow(ds.Point(i), ds.Weight[i])
			} else {
				err = w.WriteRow(ds.Point(i))
			}
			if err != nil {
				w.Abort()
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, ManifestShard{Path: name, Rows: hi - lo})
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(abs, ManifestName), append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// Load reads every part into one contiguous dataset (copying — zero-copy
// cannot span files). The distributed pull path avoids this entirely; it is
// the single-process fallback for tools pointed at a manifest.
func (m *Manifest) Load() (*geom.Dataset, error) {
	x := geom.NewMatrix(m.Rows, m.Cols)
	var weights []float64
	if m.Weighted {
		weights = make([]float64, m.Rows)
	}
	at := 0
	for i := range m.Shards {
		r, err := Open(m.ShardPath(i))
		if err != nil {
			return nil, err
		}
		part := r.Dataset()
		if part.Dim() != m.Cols {
			r.Close()
			return nil, fmt.Errorf("dsio: %s has %d cols, manifest says %d", m.ShardPath(i), part.Dim(), m.Cols)
		}
		if part.N() != m.Shards[i].Rows {
			r.Close()
			return nil, fmt.Errorf("dsio: %s has %d rows, manifest says %d", m.ShardPath(i), part.N(), m.Shards[i].Rows)
		}
		if (part.Weight != nil) != m.Weighted {
			r.Close()
			return nil, fmt.Errorf("dsio: %s weighting disagrees with the manifest", m.ShardPath(i))
		}
		copy(x.Data[at*m.Cols:], part.X.Data)
		if m.Weighted {
			copy(weights[at:], part.Weight)
		}
		at += part.N()
		if err := r.Close(); err != nil {
			return nil, err
		}
	}
	return &geom.Dataset{X: x, Weight: weights}, nil
}
