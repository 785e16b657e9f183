package durable

import (
	"hash/fnv"
	"path"

	"abivm/internal/fault"
)

// Opener constructs the durable store for one maintainer namespace; the
// broker calls it at Subscribe time. Namespaces may contain slashes
// ("shard0/orders"), which map to subdirectories.
type Opener func(ns string) (*Store, error)

// MemOpener returns an Opener over per-namespace in-memory file
// systems — hermetic disk-path behavior without real files or media
// faults.
func MemOpener() Opener {
	return func(ns string) (*Store, error) {
		return NewStore(NewMemFS(), ns)
	}
}

// DirOpener returns an Opener rooting each namespace's store in its own
// subdirectory of root.
func DirOpener(root string) Opener {
	return func(ns string) (*Store, error) {
		fsys, err := NewDirFS(path.Join(root, ns))
		if err != nil {
			return nil, err
		}
		return NewStore(fsys, ns)
	}
}

// FaultyDirOpener is DirOpener with a seeded fault.Media between the
// store and the directory, injecting byte-level media damage. Each
// namespace gets its own injector seeded from seed and the namespace
// name, so the damage schedule of one store is a pure function of its
// own operation sequence — independent of how concurrently-scheduled
// stores interleave.
func FaultyDirOpener(root string, seed int64, rates fault.MediaRates) Opener {
	return func(ns string) (*Store, error) {
		fsys, err := NewDirFS(path.Join(root, ns))
		if err != nil {
			return nil, err
		}
		return NewStore(fault.NewMedia(fsys, mediaSeed(seed, ns), rates), ns)
	}
}

// FaultyMemOpener is FaultyDirOpener over per-namespace in-memory file
// systems — the hermetic variant the chaos tests use.
func FaultyMemOpener(seed int64, rates fault.MediaRates) Opener {
	return func(ns string) (*Store, error) {
		return NewStore(fault.NewMedia(NewMemFS(), mediaSeed(seed, ns), rates), ns)
	}
}

// mediaSeed derives a per-namespace injector seed.
func mediaSeed(seed int64, ns string) int64 {
	h := fnv.New64a()
	h.Write([]byte(ns))
	return seed ^ int64(h.Sum64())
}
