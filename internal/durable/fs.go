package durable

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is the file layer a Store runs on: a namespace of files addressed
// by slash-separated relative names. It is structurally identical to
// fault.MediaFS (defined separately to keep the fault package
// dependency-free), so a *fault.Media wrapping any FS is itself an FS —
// that composition is how the chaos harness injects byte-level damage
// under a real store.
type FS interface {
	// ReadFile returns the full content of a file. A missing file yields
	// an error satisfying errors.Is(err, io/fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// WriteFile creates or replaces a file with data. It need not be
	// atomic — the Store builds atomicity on top via temp-file + Rename.
	WriteFile(name string, data []byte) error
	// AppendFile appends data to a file, creating it when absent.
	AppendFile(name string, data []byte) error
	// Rename atomically renames a file, replacing any existing target. A
	// missing source yields an io/fs.ErrNotExist-satisfying error.
	Rename(oldName, newName string) error
	// Remove deletes a file; removing a missing file is not an error
	// (idempotent, so cleanup paths never fail on repeated attempts).
	Remove(name string) error
	// List returns every file name in the namespace, sorted.
	List() ([]string, error)
}

// checkName rejects names that would escape a rooted namespace:
// absolute paths, "..", empty names, or un-clean paths. Every FS entry
// point validates so a corrupt manifest can never address files outside
// the store directory.
func checkName(name string) error {
	if name == "" || name != path.Clean(name) || path.IsAbs(name) ||
		name == ".." || strings.HasPrefix(name, "../") {
		return fmt.Errorf("durable: invalid file name %q", name)
	}
	return nil
}

// DirFS is an FS rooted at an OS directory. Writes and appends sync the
// file before returning — the Store's explicit sync points assume data
// handed to the FS is durable when the call returns.
type DirFS struct {
	root string
}

// NewDirFS returns a DirFS rooted at dir, creating it if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating store directory: %w", err)
	}
	return &DirFS{root: dir}, nil
}

// path resolves a validated relative name under the root.
func (d *DirFS) path(name string) (string, error) {
	if err := checkName(name); err != nil {
		return "", err
	}
	return filepath.Join(d.root, filepath.FromSlash(name)), nil
}

// ReadFile implements FS.
func (d *DirFS) ReadFile(name string) ([]byte, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

// writeSynced opens p with flags, writes data, and syncs before closing.
// Sync and Close errors are durability failures and are reported — a
// write that may still be sitting in a dead page cache must not count as
// landed.
func writeSynced(p string, flags int, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(p, flags, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		// The write already failed; Close can add nothing but noise.
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		// The sync error is the failure being reported.
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFile implements FS.
func (d *DirFS) WriteFile(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	return writeSynced(p, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, data)
}

// AppendFile implements FS.
func (d *DirFS) AppendFile(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	return writeSynced(p, os.O_WRONLY|os.O_CREATE|os.O_APPEND, data)
}

// Rename implements FS.
func (d *DirFS) Rename(oldName, newName string) error {
	op, err := d.path(oldName)
	if err != nil {
		return err
	}
	np, err := d.path(newName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
		return err
	}
	return os.Rename(op, np)
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	return nil
}

// List implements FS: the files of the root directory and of its
// quarantine directory. Any other subdirectory is another namespace's
// (DirOpener nests "eu/orders" inside "eu"), so List does not enter it,
// and no store sweeps or recovers from a neighbour's files. WalkDir
// visits lexically, so the result is sorted without an extra pass; a
// missing root lists empty.
func (d *DirFS) List() ([]string, error) {
	var out []string
	err := filepath.WalkDir(d.root, func(p string, de iofs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if de.IsDir() {
			if rel == "." || rel+"/" == quarantinePrefix {
				return nil
			}
			return filepath.SkipDir
		}
		out = append(out, rel)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("durable: listing store directory: %w", err)
	}
	return out, nil
}

// MemFS is an in-memory FS for tests: deterministic, no OS interaction,
// and cheap to snapshot. It is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("durable: memfs read %q: %w", name, iofs.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// WriteFile implements FS.
func (m *MemFS) WriteFile(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
	return nil
}

// AppendFile implements FS.
func (m *MemFS) AppendFile(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append(m.files[name], data...)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	if err := checkName(oldName); err != nil {
		return err
	}
	if err := checkName(newName); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("durable: memfs rename %q: %w", oldName, iofs.ErrNotExist)
	}
	delete(m.files, oldName)
	m.files[newName] = data
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
