package cssi

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// shardedManifest is the directory-level description of a persisted
// sharded index: which files hold which shard, in shard order. JSON so
// a human (or another toolchain) can inspect a saved index without the
// gob decoder.
type shardedManifest struct {
	Format string   `json:"format"` // always "cssi-sharded"
	Ver    int      `json:"version"`
	Shards int      `json:"shards"`
	Files  []string `json:"files"` // relative to the manifest's directory, index = shard
}

const (
	shardedManifestName   = "manifest.json"
	shardedManifestFormat = "cssi-sharded"
	shardedManifestVer    = 1
)

// SaveDir persists the sharded index into dir: one self-contained
// per-shard index file (the same format Index.Save writes, so any
// single shard file also loads with LoadIndex) plus a manifest.json
// tying them together in shard order. Each file is written to a
// temporary name, synced and renamed into place, the manifest last, and
// the directory is synced after it — an interrupted save, or a crash
// after it, never leaves a manifest pointing at missing or truncated
// shard files. Every shard is captured from its
// snapshot at its own scatter instant (per-shard consistency, like
// reads).
func (s *ShardedIndex) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cssi: creating %s: %w", dir, err)
	}
	m := shardedManifest{
		Format: shardedManifestFormat,
		Ver:    shardedManifestVer,
		Shards: len(s.shards),
		Files:  make([]string, len(s.shards)),
	}
	for i, sh := range s.shards {
		name := fmt.Sprintf("shard-%04d.cssi", i)
		if err := writeFileAtomic(filepath.Join(dir, name), func(f *os.File) error {
			return sh.cur.Load().Save(f)
		}); err != nil {
			return fmt.Errorf("cssi: saving shard %d: %w", i, err)
		}
		m.Files[i] = name
	}
	if err := writeFileAtomic(filepath.Join(dir, shardedManifestName), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}); err != nil {
		return fmt.Errorf("cssi: saving manifest: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("cssi: syncing %s: %w", dir, err)
	}
	return nil
}

// writeFileAtomic writes via a temp file in the destination directory,
// syncs it to stable storage and renames it into place, so readers only
// ever observe complete files and a crash after the rename cannot
// surface a renamed file whose contents never reached the disk. The
// renames themselves are durable once the directory is synced
// (syncDir), which SaveDir does after the last one. A failed write
// leaves the previous file untouched and removes the temp file.
func writeFileAtomic(path string, write func(f *os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// syncDir flushes dir's entries — the renames into it — to stable
// storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadSharded restores a sharded index from path. Two layouts load:
//
//   - a directory written by SaveDir (manifest + per-shard files),
//     restored with its original shard count and routing;
//   - a plain single-index file written by Index.Save (format version 4;
//     older versions are refused), which loads as a fully functional
//     ONE-shard instance.
func LoadSharded(path string) (*ShardedIndex, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("cssi: %w", err)
	}
	if !fi.IsDir() {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("cssi: %w", err)
		}
		defer f.Close()
		idx, err := LoadIndex(f)
		if err != nil {
			return nil, fmt.Errorf("cssi: loading %s as single-index file: %w", path, err)
		}
		return ShardedFrom(idx), nil
	}
	raw, err := os.ReadFile(filepath.Join(path, shardedManifestName))
	if err != nil {
		return nil, fmt.Errorf("cssi: reading sharded manifest: %w", err)
	}
	var m shardedManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("cssi: parsing sharded manifest: %w", err)
	}
	if m.Format != shardedManifestFormat {
		return nil, fmt.Errorf("cssi: manifest format %q, want %q", m.Format, shardedManifestFormat)
	}
	if m.Ver != shardedManifestVer {
		return nil, fmt.Errorf("cssi: manifest version %d, this build reads %d", m.Ver, shardedManifestVer)
	}
	if m.Shards < 1 || m.Shards != len(m.Files) {
		return nil, fmt.Errorf("cssi: manifest lists %d shards but %d files", m.Shards, len(m.Files))
	}
	s := &ShardedIndex{shards: make([]*shardCell, m.Shards)}
	for i, name := range m.Files {
		// A manifest is outside input: its entries name files of the
		// directory, never a path out of it.
		if !filepath.IsLocal(name) {
			return nil, fmt.Errorf("cssi: manifest names shard %d file %q outside the index directory", i, name)
		}
		f, err := os.Open(filepath.Join(path, name))
		if err != nil {
			return nil, fmt.Errorf("cssi: opening shard %d: %w", i, err)
		}
		idx, err := LoadIndex(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("cssi: loading shard %d: %w", i, err)
		}
		s.shards[i] = newShardCell(idx)
	}
	s.dim = s.shards[0].cur.Load().Dim()
	if err := s.checkAgreement(); err != nil {
		return nil, fmt.Errorf("cssi: loading %s: %w", path, err)
	}
	return s, nil
}
