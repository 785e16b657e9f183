package fault

import (
	"errors"
	"io/fs"
	"math/rand"
	"sync"
)

// Byte-level media faults: where Injector models failures of runtime
// *operations* (drains, checkpoints, crashes), Media models failures of
// the *storage medium* underneath the durable layer — the byte-level
// damage a real disk inflicts between a write syscall returning and the
// data being read back after a crash. Media wraps any file layer
// implementing MediaFS and decides, deterministically per seed, whether
// each write-side operation lands intact, lands damaged, or silently
// does not land at all. The read side is passed through untouched: every
// corruption a reader can observe is representable as a write that lied,
// which keeps the injected state exactly reproducible from the seed.

// MediaFS is the file-layer surface Media wraps: a flat namespace of
// files addressed by slash-separated relative names. It is defined here,
// in the dependency-free fault package, so the durable layer can accept
// a *Media without an import cycle; durable's own FS interface is
// structurally identical and any implementation satisfies both.
type MediaFS interface {
	// ReadFile returns the full content of a file.
	ReadFile(name string) ([]byte, error)
	// WriteFile atomically creates or replaces a file with data.
	WriteFile(name string, data []byte) error
	// AppendFile appends data to a file, creating it when absent.
	AppendFile(name string, data []byte) error
	// Rename atomically renames a file within the namespace.
	Rename(oldName, newName string) error
	// Remove deletes a file.
	Remove(name string) error
	// List returns every file name in the namespace, sorted.
	List() ([]string, error)
}

// MediaFault names one byte-level damage kind Media can inflict.
type MediaFault string

// Media fault kinds. Each models a distinct way real storage betrays a
// writer; together they cover every corruption class the durable layer's
// recovery ladder must survive.
const (
	// MediaTornAppend cuts an append short: only a prefix of the appended
	// bytes lands — the torn tail write of a crash mid-append.
	MediaTornAppend MediaFault = "torn_append"
	// MediaBitFlip inverts one random bit of the written data — bit rot,
	// or a corrupt sector that still has the right length.
	MediaBitFlip MediaFault = "bit_flip"
	// MediaTruncate cuts a full-file write short, leaving a truncated
	// segment behind.
	MediaTruncate MediaFault = "truncate"
	// MediaDropFile silently skips a full-file write: the file is missing
	// (or stale) afterwards although the writer saw success.
	MediaDropFile MediaFault = "drop_file"
	// MediaSkipRename silently skips a rename — the crash between writing
	// a temp file and renaming it over its target.
	MediaSkipRename MediaFault = "skip_rename"
)

// MediaRates holds per-kind fire probabilities in [0, 1] per operation.
type MediaRates struct {
	TornAppend float64
	BitFlip    float64
	Truncate   float64
	DropFile   float64
	SkipRename float64
}

// DefaultMediaRates is the chaos harness's standard media-fault mix:
// rare enough that most runs recover exactly, frequent enough that a
// 50-seed sweep exercises every damage kind and the full-refresh
// fallback.
func DefaultMediaRates() MediaRates {
	return MediaRates{TornAppend: 0.03, BitFlip: 0.03, Truncate: 0.02, DropFile: 0.02, SkipRename: 0.03}
}

// MediaMaxRun caps consecutive injected media faults per kind, mirroring
// MaxRun for operation faults: unbounded runs could destroy every
// recovery artifact at once, leaving nothing for the fallback ladder to
// demonstrate.
const MediaMaxRun = 2

// Media is a deterministic byte-level fault injector over a file layer:
// for a fixed seed and operation sequence it damages the exact same
// writes in the exact same ways. It is safe for concurrent use, though
// determinism then depends on the callers' sequencing — give each
// independently-scheduled store its own Media.
type Media struct {
	mu    sync.Mutex
	inner MediaFS
	rng   *rand.Rand
	rates MediaRates
	run   map[MediaFault]int
	fired map[MediaFault]int
	total int
}

// NewMedia wraps inner with a seeded media-fault injector.
func NewMedia(inner MediaFS, seed int64, rates MediaRates) *Media {
	return &Media{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		rates: rates,
		run:   make(map[MediaFault]int),
		fired: make(map[MediaFault]int),
	}
}

// hit decides whether one fault kind fires on this operation, honoring
// the consecutive-run cap. Caller holds m.mu; every call draws exactly
// one variate, so the decision sequence is a pure function of the seed
// and the operation order.
func (m *Media) hit(kind MediaFault, rate float64) bool {
	fire := m.rng.Float64() < rate
	if !fire {
		m.run[kind] = 0
		return false
	}
	if m.run[kind] >= MediaMaxRun {
		m.run[kind] = 0
		return false
	}
	m.run[kind]++
	m.fired[kind]++
	m.total++
	return true
}

// cut returns a strict prefix of data: at least zero bytes, at most
// len(data)-1, so a torn write always loses something. Caller holds m.mu.
func (m *Media) cut(data []byte) []byte {
	return data[:m.rng.Intn(len(data))]
}

// flip returns a copy of data with one random bit inverted. Caller holds
// m.mu.
func (m *Media) flip(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	i := m.rng.Intn(len(out))
	out[i] ^= 1 << uint(m.rng.Intn(8))
	return out
}

// ReadFile implements MediaFS, passing reads through untouched.
//
//lint:ignore mutexheld inner is set at construction and never reassigned
func (m *Media) ReadFile(name string) ([]byte, error) { return m.inner.ReadFile(name) }

// WriteFile implements MediaFS. A full-file write may be silently
// dropped (MediaDropFile), truncated (MediaTruncate), or land with one
// bit flipped (MediaBitFlip); the caller always sees success — lying is
// the point.
func (m *Media) WriteFile(name string, data []byte) error {
	m.mu.Lock()
	if len(data) > 0 && m.hit(MediaDropFile, m.rates.DropFile) {
		m.mu.Unlock()
		return nil
	}
	if len(data) > 0 && m.hit(MediaTruncate, m.rates.Truncate) {
		data = m.cut(data)
	} else if len(data) > 0 && m.hit(MediaBitFlip, m.rates.BitFlip) {
		data = m.flip(data)
	}
	m.mu.Unlock()
	return m.inner.WriteFile(name, data)
}

// AppendFile implements MediaFS. An append may land torn
// (MediaTornAppend) or with one bit flipped (MediaBitFlip).
func (m *Media) AppendFile(name string, data []byte) error {
	m.mu.Lock()
	if len(data) > 0 && m.hit(MediaTornAppend, m.rates.TornAppend) {
		data = m.cut(data)
	} else if len(data) > 0 && m.hit(MediaBitFlip, m.rates.BitFlip) {
		data = m.flip(data)
	}
	m.mu.Unlock()
	return m.inner.AppendFile(name, data)
}

// Rename implements MediaFS. A rename may be silently skipped
// (MediaSkipRename) — the temp file stays, the target keeps its old
// content (or stays absent). Renaming a file an earlier MediaDropFile
// made vanish also reports success: to the writer the whole
// write-then-rename sequence appeared to work, and the lie only
// surfaces at recovery, exactly like a real crash after a lost write.
func (m *Media) Rename(oldName, newName string) error {
	m.mu.Lock()
	skip := m.hit(MediaSkipRename, m.rates.SkipRename)
	m.mu.Unlock()
	if skip {
		return nil
	}
	if err := m.inner.Rename(oldName, newName); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	return nil
}

// Remove implements MediaFS, passing deletes through untouched.
//
//lint:ignore mutexheld inner is set at construction and never reassigned
func (m *Media) Remove(name string) error { return m.inner.Remove(name) }

// List implements MediaFS, passing listings through untouched.
//
//lint:ignore mutexheld inner is set at construction and never reassigned
func (m *Media) List() ([]string, error) { return m.inner.List() }

// Fired returns a copy of the per-kind injected-fault counts.
func (m *Media) Fired() map[MediaFault]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[MediaFault]int, len(m.fired))
	for k, v := range m.fired {
		out[k] = v
	}
	return out
}

// Total returns the number of media faults injected so far.
func (m *Media) Total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}
