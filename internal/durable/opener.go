package durable

import (
	"fmt"
	"hash/fnv"
	"path"
	"slices"
	"strings"

	"abivm/internal/fault"
)

// Opener constructs the durable store for one maintainer namespace, the
// subscription's name, at Subscribe time. Namespaces may contain slashes
// ("eu/orders"), which map to subdirectories.
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
		fsys, err := nsDirFS(root, ns)
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
		fsys, err := nsDirFS(root, ns)
		if err != nil {
			return nil, err
		}
		return NewStore(fault.NewMedia(fsys, mediaSeed(seed, ns), rates), ns)
	}
}

// nsDirFS opens the directory of namespace ns under root. It refuses a
// namespace that is absolute or has a ".." element, which could name a
// directory outside root, and one that names its directory in more than
// one way ("a//b", "a/b/", "./a") or not at all ("", "."), which would
// let two namespaces share a directory. It refuses a "quarantine"
// element too: "eu/quarantine" is where the store of "eu" quarantines.
func nsDirFS(root, ns string) (*DirFS, error) {
	elems := strings.Split(ns, "/")
	switch {
	case path.IsAbs(ns) || slices.Contains(elems, ".."):
		return nil, fmt.Errorf("durable: namespace %q would leave the data directory", ns)
	case ns != path.Clean(ns) || ns == ".":
		return nil, fmt.Errorf("durable: namespace %q is not a clean relative path", ns)
	case slices.Contains(elems, strings.TrimSuffix(quarantinePrefix, "/")):
		return nil, fmt.Errorf("durable: namespace %q has a quarantine directory's name", ns)
	}
	return NewDirFS(path.Join(root, ns))
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
