package fsim

import (
	"fmt"
	"strconv"
)

// BeginEpoch claims the calling process's boot epoch under dir: the
// larger of floor and one more than the highest epoch recorded there, as
// an empty file dir/<n> (n in hex, six digits at least). The record is
// durable before BeginEpoch returns, so ids that carry the epoch are never
// issued again by a later process; earlier records go once it is safe.
func BeginEpoch(fs FS, dir string, floor uint64) (uint64, error) {
	prefix := dir + "/"
	old := fs.List(prefix)
	epoch := floor
	for _, name := range old {
		if v, err := strconv.ParseUint(name[len(prefix):], 16, 64); err == nil && v >= epoch {
			epoch = v + 1
		}
	}
	f, err := fs.Create(fmt.Sprintf("%s%06X", prefix, epoch))
	if err != nil {
		return 0, fmt.Errorf("epoch %d: %w", epoch, err)
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("epoch %d: %w", epoch, err)
	}
	for _, name := range old {
		_ = fs.Remove(name) // best effort: the highest record decides
	}
	return epoch, nil
}
