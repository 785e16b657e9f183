package storage

// Stats counts the engine's work units. Every operator and table method
// bumps these counters; the costmodel package converts them into
// pseudo-millisecond cost functions. Counting instead of timing makes
// every experiment deterministic and machine-independent while preserving
// the relative cost structure the paper's measurements exhibit (index
// probes are cheap, scans are proportional to table size, batch setup has
// a fixed component).
type Stats struct {
	RowsScanned   uint64 // rows examined by sequential scans
	IndexProbes   uint64 // index lookups issued
	IndexEntries  uint64 // index entries (matching rows) read
	RowsInserted  uint64
	RowsDeleted   uint64
	RowsUpdated   uint64
	IndexWrites   uint64 // secondary-index maintenance entries touched
	HashBuildRows uint64 // rows read from the stored (right) input of a hash join
	HashProbeRows uint64 // rows read from the driving (left) input of a hash join
	RowsEmitted   uint64 // rows produced by operators
	AggUpdates    uint64 // aggregate-state updates
	BatchSetups   uint64 // per-batch fixed setup events (plan prep, hash builds)
	RowsMaterial  uint64 // rows copied into materialized state (views, replicas)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RowsScanned += other.RowsScanned
	s.IndexProbes += other.IndexProbes
	s.IndexEntries += other.IndexEntries
	s.RowsInserted += other.RowsInserted
	s.RowsDeleted += other.RowsDeleted
	s.RowsUpdated += other.RowsUpdated
	s.IndexWrites += other.IndexWrites
	s.HashBuildRows += other.HashBuildRows
	s.HashProbeRows += other.HashProbeRows
	s.RowsEmitted += other.RowsEmitted
	s.AggUpdates += other.AggUpdates
	s.BatchSetups += other.BatchSetups
	s.RowsMaterial += other.RowsMaterial
}

// Sub returns s - other component-wise; used to delta two snapshots.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		RowsScanned:   s.RowsScanned - other.RowsScanned,
		IndexProbes:   s.IndexProbes - other.IndexProbes,
		IndexEntries:  s.IndexEntries - other.IndexEntries,
		RowsInserted:  s.RowsInserted - other.RowsInserted,
		RowsDeleted:   s.RowsDeleted - other.RowsDeleted,
		RowsUpdated:   s.RowsUpdated - other.RowsUpdated,
		IndexWrites:   s.IndexWrites - other.IndexWrites,
		HashBuildRows: s.HashBuildRows - other.HashBuildRows,
		HashProbeRows: s.HashProbeRows - other.HashProbeRows,
		RowsEmitted:   s.RowsEmitted - other.RowsEmitted,
		AggUpdates:    s.AggUpdates - other.AggUpdates,
		BatchSetups:   s.BatchSetups - other.BatchSetups,
		RowsMaterial:  s.RowsMaterial - other.RowsMaterial,
	}
}

// Weights converts work units into pseudo-milliseconds. The defaults are
// loosely calibrated to a 2005-era commercial DBMS on the paper's 2GB
// Linux server: an index probe costs a few microseconds of CPU plus
// amortized cache misses, a scanned row is cheaper per row but scans touch
// every row, and each batch pays a fixed setup (statement preparation,
// hash-table construction).
type Weights struct {
	RowScanned  float64
	IndexProbe  float64
	IndexEntry  float64
	RowWrite    float64 // insert/delete/update on a heap row
	IndexWrite  float64
	HashBuild   float64
	HashProbe   float64
	RowEmit     float64
	AggUpdate   float64
	BatchSetup  float64
	RowMaterial float64
}

// DefaultWeights returns the standard pseudo-millisecond weights.
func DefaultWeights() Weights {
	return Weights{
		RowScanned:  0.0005,
		IndexProbe:  0.002,
		IndexEntry:  0.0008,
		RowWrite:    0.003,
		IndexWrite:  0.002,
		HashBuild:   0.001,
		HashProbe:   0.0008,
		RowEmit:     0.0005,
		AggUpdate:   0.002,
		BatchSetup:  2.5,
		RowMaterial: 0.001,
	}
}

// Cost converts a Stats delta into pseudo-milliseconds under w.
func (w Weights) Cost(s Stats) float64 {
	return w.RowScanned*float64(s.RowsScanned) +
		w.IndexProbe*float64(s.IndexProbes) +
		w.IndexEntry*float64(s.IndexEntries) +
		w.RowWrite*float64(s.RowsInserted+s.RowsDeleted+s.RowsUpdated) +
		w.IndexWrite*float64(s.IndexWrites) +
		w.HashBuild*float64(s.HashBuildRows) +
		w.HashProbe*float64(s.HashProbeRows) +
		w.RowEmit*float64(s.RowsEmitted) +
		w.AggUpdate*float64(s.AggUpdates) +
		w.BatchSetup*float64(s.BatchSetups) +
		w.RowMaterial*float64(s.RowsMaterial)
}
