package cssi

import (
	"errors"
	"io"

	"repro/internal/core"
)

// Save writes a one-shard index to w in a self-contained binary format
// (SaveDir writes an index of any shard count). The stored form
// includes the objects, the PCA model and all cluster representations,
// so LoadIndex restores a fully functional index without
// re-clustering.
func (s *Index) Save(w io.Writer) error {
	if len(s.shards) != 1 {
		return errors.New("cssi: Save writes a one-shard index; use SaveDir")
	}
	return s.shards[0].cur.Load().core.Save(w)
}

// LoadIndex restores, as a one-shard index, an index previously written
// with Save. The loaded index answers queries identically and supports
// maintenance.
func LoadIndex(r io.Reader) (*Index, error) {
	c, space, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return newIndex([]*snapshot{{core: c, space: space}}), nil
}
