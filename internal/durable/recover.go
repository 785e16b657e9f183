package durable

import (
	"errors"
	"fmt"
	iofs "io/fs"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Corruption describes one damaged or missing artifact recovery
// detected: the file (or file region) and what was wrong with it.
type Corruption struct {
	Artifact string
	Detail   string
}

// Recovery is the result of Store.Recover: the ladder rung taken and, on
// an exact rung, the rebuilt maintainer with its WAL and checkpoint
// chain (byte-identical to the crashed maintainer). Fallback is true when
// corruption forced the last rung: the store was reset, M, WAL and Chain
// are nil, and the caller recomputes the view from current base state —
// un-drained deltas are lost. Corruptions lists every artifact the
// ladder stepped over either way.
type Recovery struct {
	M           *ivm.Maintainer
	WAL         *ivm.WAL
	Chain       *ivm.CheckpointChain
	Fallback    bool
	Corruptions []Corruption
}

// scanState is the outcome of scanning the on-disk WAL segments: the
// longest valid contiguous record run, the segments that survive
// (including repaired ones), and the damage found along the way.
type scanState struct {
	recs    []ivm.WALRecord
	segs    []walSeg
	events  []Corruption
	quars   int
	repairs int
}

func (s *scanState) first() uint64 {
	if len(s.recs) == 0 {
		return 0
	}
	return s.recs[0].LSN
}

func (s *scanState) last() uint64 {
	if len(s.recs) == 0 {
		return 0
	}
	return s.recs[len(s.recs)-1].LSN
}

// quarantineLocked moves an artifact into the quarantine directory under
// a unique sequence-numbered name, preserving it for diagnosis while
// freeing its live name. When the rename itself fails (quarantine on
// damaged media), the artifact is removed instead — a stale file must
// not shadow a fresh one. If both fail the file simply stays; generation
// and LSN naming keeps leftovers from ever being mistaken for live
// artifacts.
func (st *Store) quarantineLocked(name string) bool {
	qname := fmt.Sprintf("%s%06d-%s", quarantinePrefix, st.qseq, name)
	st.qseq++
	if err := st.fs.Rename(name, qname); err != nil {
		if rmErr := st.fs.Remove(name); rmErr != nil {
			return false
		}
	}
	st.stats.Quarantined++
	return true
}

// scanWALLocked reads every WAL segment in LSN order and accepts the
// longest valid prefix: frames must parse, checksum, and carry strictly
// contiguous LSNs within and across segments, and each segment's first
// record must match the LSN in its file name. The scan truncates at the
// first defect: the damaged segment is quarantined and its valid prefix
// rewritten in place (so the next scan sees a cleanly-ended log), and
// any segments past the defect are quarantined whole — rotation happens
// only after a sync, so nothing after a tear can be contiguous.
func (st *Store) scanWALLocked() scanState {
	var sc scanState
	names, err := st.fs.List()
	if err != nil {
		sc.events = append(sc.events, Corruption{Artifact: ".", Detail: fmt.Sprintf("listing store: %v", err)})
		return sc
	}
	type cand struct {
		name  string
		first uint64
	}
	var cands []cand
	for _, name := range names {
		first, ok := parseWALName(name)
		if !ok {
			continue
		}
		// List is sorted and the fixed-width hex names sort by LSN, so
		// cands is already in ascending first-LSN order.
		cands = append(cands, cand{name: name, first: first})
	}
	broken := false
	for _, c := range cands {
		if broken {
			sc.events = append(sc.events, Corruption{Artifact: c.name,
				Detail: "unreachable past a damaged segment"})
			if st.quarantineLocked(c.name) {
				sc.quars++
			}
			continue
		}
		if len(sc.segs) > 0 && c.first != sc.last()+1 {
			sc.events = append(sc.events, Corruption{Artifact: c.name,
				Detail: fmt.Sprintf("segment starts at lsn %d, log covers %d (gap)", c.first, sc.last())})
			if st.quarantineLocked(c.name) {
				sc.quars++
			}
			broken = true
			continue
		}
		data, err := st.fs.ReadFile(c.name)
		if err != nil {
			sc.events = append(sc.events, Corruption{Artifact: c.name,
				Detail: fmt.Sprintf("reading segment: %v", err)})
			if !errors.Is(err, iofs.ErrNotExist) && st.quarantineLocked(c.name) {
				sc.quars++
			}
			broken = true
			continue
		}
		expect := c.first
		off, goodOff := 0, 0
		var defect string
		for off < len(data) {
			rec, next, err := readFrame(data, off)
			if err != nil {
				defect = err.Error()
				break
			}
			if rec.LSN != expect {
				defect = fmt.Sprintf("frame at offset %d has lsn %d, want %d", off, rec.LSN, expect)
				break
			}
			sc.recs = append(sc.recs, rec)
			expect++
			off = next
			goodOff = next
		}
		if defect == "" {
			sc.segs = append(sc.segs, walSeg{name: c.name, first: c.first})
			continue
		}
		sc.events = append(sc.events, Corruption{Artifact: c.name,
			Detail: fmt.Sprintf("truncating log at lsn %d: %s", expect-1, defect)})
		if st.quarantineLocked(c.name) {
			sc.quars++
		}
		if goodOff > 0 {
			// Rewrite the valid prefix under the original name so the log
			// ends cleanly on disk; if the repair write is itself lost to
			// the media, the next recovery just finds a shorter log.
			if err := st.writeAtomic(c.name, data[:goodOff]); err == nil {
				sc.segs = append(sc.segs, walSeg{name: c.name, first: c.first})
				sc.repairs++
			}
		}
		broken = true
	}
	return sc
}

// chainState is the usable part of the on-disk checkpoint chain: the
// manifest, the base segment, and the longest valid delta prefix.
type chainState struct {
	man    *manifest
	base   []byte
	deltas [][]byte
	// tip is the WAL position the usable prefix covers through: the last
	// good delta's LSN, or the base LSN with no deltas.
	tip    uint64
	ok     bool
	events []Corruption
	quars  int
}

// loadChainLocked reads and validates the checkpoint chain: manifest
// checksum, version and namespace; base checksum against the manifest;
// then each delta in order, stopping the prefix at the first damaged
// segment (a later delta cannot apply over a missing link). Corrupt
// artifacts are quarantined as they are found.
func (st *Store) loadChainLocked() chainState {
	var cs chainState
	fail := func(artifact, detail string, quarantine bool) {
		cs.events = append(cs.events, Corruption{Artifact: artifact, Detail: detail})
		if quarantine && st.quarantineLocked(artifact) {
			cs.quars++
		}
	}
	data, err := st.fs.ReadFile(manifestName)
	if err != nil {
		fail(manifestName, fmt.Sprintf("reading manifest: %v", err), false)
		return cs
	}
	man, err := decodeManifest(data)
	if err != nil {
		fail(manifestName, err.Error(), true)
		return cs
	}
	if man.Namespace != st.ns {
		fail(manifestName, fmt.Sprintf("manifest namespace %q, want %q", man.Namespace, st.ns), true)
		return cs
	}
	base, err := st.fs.ReadFile(man.BaseName)
	if err != nil {
		fail(man.BaseName, fmt.Sprintf("reading base segment: %v", err), false)
		return cs
	}
	if got := crcOf(base); got != man.BaseCRC {
		fail(man.BaseName, fmt.Sprintf("base checksum mismatch: manifest %08x, computed %08x", man.BaseCRC, got), true)
		return cs
	}
	cs.man = man
	cs.base = base
	cs.tip = man.BaseLSN
	cs.ok = true
	for i, ref := range man.Deltas {
		seg, err := st.fs.ReadFile(ref.Name)
		if err != nil {
			fail(ref.Name, fmt.Sprintf("reading delta segment %d: %v", i, err), false)
			break
		}
		if got := crcOf(seg); got != ref.CRC {
			fail(ref.Name, fmt.Sprintf("delta segment %d checksum mismatch: manifest %08x, computed %08x", i, ref.CRC, got), true)
			break
		}
		cs.deltas = append(cs.deltas, seg)
		cs.tip = ref.LSN
	}
	return cs
}

// Recover rebuilds the namespace's maintainer from disk after a crash,
// walking the fallback ladder:
//
//  1. Exact: manifest, base, and a delta prefix validate, and the WAL
//     scan covers every record the last sync acknowledged — replaying
//     the scanned suffix over the chain reproduces the crashed
//     maintainer byte-for-byte.
//  2. Degraded chain: corrupt delta segments are dropped (quarantined,
//     manifest rewritten to the good prefix) and the longer WAL suffix
//     kept by the base-LSN retention floor is replayed instead — still
//     exact.
//  3. Full refresh: the chain or the acknowledged log is unrecoverable,
//     so the store resets itself to a fresh generation and returns
//     Fallback with M, WAL and Chain nil. The caller rebuilds the view
//     from the live tables — current state, with un-drained deltas lost
//     — the way it built it in the first place, and that build's base
//     checkpoint re-seeds the store. Loud (Fallback flag, corruption
//     metrics), never silent.
//
// The store detects silent tail loss with its in-memory acknowledged-LSN
// watermark: a scan that ends below the last successful Sync means an
// append lied (a torn write cut on a frame boundary), which no checksum
// can see. A store opened fresh on an existing directory has no
// watermark and trusts the scan — the same trust a real log places in
// its last fsync.
//
// On the exact rungs the rebuilt maintainer has the store re-attached as
// WAL sink and chain store, and ms attached to maintainer, WAL, and
// chain.
func (st *Store) Recover(live *storage.DB, query string, maxDepth int, ms *ivm.Metrics) (*Recovery, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Whatever was buffered but never synced died with the crash.
	st.buf = nil
	st.bufFirst = 0

	cs := st.loadChainLocked()
	events := cs.events
	quars := cs.quars
	if !cs.ok {
		return st.fallbackLocked(ms, events, quars), nil
	}

	sc := st.scanWALLocked()
	events = append(events, sc.events...)
	quars += sc.quars

	// Coverage: every record the last sync acknowledged must be reachable
	// — on disk past the chain tip, or subsumed by the chain itself.
	covered := max64(sc.last(), cs.tip)
	if covered < st.ackedLSN {
		events = append(events, Corruption{Artifact: walName(st.ackedLSN),
			Detail: fmt.Sprintf("log ends at lsn %d but sync acknowledged %d (silent tail loss)", covered, st.ackedLSN)})
		return st.fallbackLocked(ms, events, quars), nil
	}
	if sc.last() > cs.tip && sc.first() > cs.tip+1 {
		events = append(events, Corruption{Artifact: walName(sc.first()),
			Detail: fmt.Sprintf("log starts at lsn %d, past the chain tip %d (gap)", sc.first(), cs.tip)})
		return st.fallbackLocked(ms, events, quars), nil
	}

	chain := ivm.RestoreChain(cs.base, cs.deltas, cs.tip, maxDepth)
	suffix := sc.recs
	for len(suffix) > 0 && suffix[0].LSN <= cs.tip {
		suffix = suffix[1:]
	}
	lastLSN := max64(cs.tip, sc.last())
	wal, err := ivm.RestoreWAL(suffix, lastLSN+1)
	if err != nil {
		// The scan guarantees ascending contiguous LSNs, so this is a
		// software defect, not media damage.
		return nil, err
	}
	m, err := ivm.RecoverChainNamespaced(live, query, st.ns, chain, wal, ms)
	if err != nil {
		// Checksums passed but the content would not rebuild — a stale
		// manifest landed by a lying rename, or damage below CRC
		// visibility. Last rung.
		events = append(events, Corruption{Artifact: cs.man.BaseName,
			Detail: fmt.Sprintf("chain replay failed: %v", err)})
		return st.fallbackLocked(ms, events, quars), nil
	}

	// Adopt the surviving file state. If the scan ended at or below the
	// chain tip the segments are fully subsumed by the chain; drop them
	// so future appends (which restart at tip+1) keep the on-disk LSN
	// sequence gap-free.
	if dropped := len(cs.deltas) < len(cs.man.Deltas); dropped {
		man := *cs.man
		man.Deltas = append([]segmentRef(nil), cs.man.Deltas[:len(cs.deltas)]...)
		if err := st.writeManifestLocked(&man); err == nil {
			cs.man = &man
		}
		// A failed rewrite leaves the old manifest referencing the
		// quarantined deltas; the next recovery re-drops them.
	}
	if sc.last() <= cs.tip {
		for _, seg := range sc.segs {
			if err := st.fs.Remove(seg.name); err != nil {
				break
			}
		}
		sc.segs = nil
	}
	st.segs = sc.segs
	st.rotate = true
	st.lastLSN = lastLSN
	st.ackedLSN = lastLSN
	if len(sc.segs) > 0 {
		st.ackedLSN = sc.last()
	}
	st.man = cs.man
	st.baseLSN = cs.man.BaseLSN
	if cs.man.Gen > st.gen {
		st.gen = cs.man.Gen
	}
	st.stats.Corruptions += len(events)
	st.ms = ms
	ms.ObserveRecoveryCorruption(len(events), quars)

	wal.SetSink(st)
	chain.SetStore(st)
	return &Recovery{M: m, WAL: wal, Chain: chain, Corruptions: events}, nil
}

// fallbackLocked takes the ladder's last rung: quarantining already
// happened at detection time, so this just resets the store to a fresh
// (but generation-continuous) state and reports the damage.
func (st *Store) fallbackLocked(ms *ivm.Metrics, events []Corruption, quars int) *Recovery {
	st.buf = nil
	st.bufFirst = 0
	st.rotate = false
	st.segs = nil
	st.lastLSN = 0
	st.ackedLSN = 0
	st.baseLSN = 0
	st.man = nil
	st.stats.Corruptions += len(events)
	st.stats.Fallbacks++
	st.ms = ms
	ms.ObserveRecoveryCorruption(len(events), quars)
	ms.ObserveRecoveryFallback()
	return &Recovery{Fallback: true, Corruptions: events}
}

// max64 returns the larger of two LSNs.
func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
