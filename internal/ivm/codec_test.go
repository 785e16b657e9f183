package ivm

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// sameMod is payload identity (floats by bit pattern, nil and empty
// alike), which is what the codec promises to preserve.
func sameMod(a, b Mod) bool {
	return a.Kind == b.Kind && a.Alias == b.Alias && a.Row.SameKey(b.Row) && storage.Row(a.Key).SameKey(b.Key)
}

// randomValue draws from all three value types, with the payloads that
// text encodings lose: NaNs with distinct payloads, both zeros, the
// integer extremes, strings holding NUL and non-UTF-8 bytes.
func randomValue(rng *rand.Rand) storage.Value {
	switch rng.Intn(3) {
	case 0:
		return storage.I([]int64{0, -1, 1, 63, -64, 64, math.MaxInt64, math.MinInt64, rng.Int63()}[rng.Intn(9)])
	case 1:
		return storage.F([]float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(),
			math.Float64frombits(0x7ff8000000000001 | uint64(rng.Intn(1<<20))<<1), rng.NormFloat64()}[rng.Intn(7)])
	}
	return storage.S([]string{"", "a", "nul\x00in\xffside", strings.Repeat("x", 200)}[rng.Intn(4)])
}

// TestModRoundTrip: every shape a Mod takes — insert, delete, update;
// all three value types; an empty key, an empty row, an empty alias —
// decodes to the same payload and re-encodes to the same bytes.
func TestModRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := func(n int) []storage.Value {
		var out []storage.Value
		for i := 0; i < n; i++ {
			out = append(out, randomValue(rng))
		}
		return out
	}
	mods := []Mod{
		{},
		Insert("s", storage.Row{storage.I(1), storage.S("x"), storage.F(2.5)}),
		Delete("s", storage.I(1)),
		Delete("s"),
		Update("st", []storage.Value{storage.I(1), storage.S("k")}, storage.Row{storage.I(1), storage.S("k"), storage.F(math.NaN())}),
	}
	for i := 0; i < 300; i++ {
		mods = append(mods, Mod{Kind: ModKind(rng.Intn(3)), Alias: []string{"", "s", "alias"}[rng.Intn(3)],
			Row: values(rng.Intn(5)), Key: values(rng.Intn(3))})
	}
	var buf []byte
	for _, mod := range mods {
		var err error
		if buf, err = AppendMod(buf, mod); err != nil {
			t.Fatalf("%+v: %v", mod, err)
		}
	}
	r := storage.NewReader(buf)
	var again []byte
	for _, want := range mods {
		got := ReadMod(r)
		if err := r.Err(); err != nil {
			t.Fatalf("decoding %+v: %v", want, err)
		}
		if !sameMod(got, want) {
			t.Fatalf("decoded %+v, want %+v", got, want)
		}
		again, _ = AppendMod(again, got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("decoded modifications re-encoded to different bytes")
	}
}

// TestAppendModRejectsUnknownType: a value of no known type fails at
// write time, in the row or in the key, and leaves dst as it was.
func TestAppendModRejectsUnknownType(t *testing.T) {
	for _, mod := range []Mod{
		{Kind: ModInsert, Alias: "s", Row: storage.Row{storage.I(1), {T: 9}}},
		{Kind: ModDelete, Alias: "s", Key: []storage.Value{{T: 3}}},
	} {
		dst, err := AppendMod([]byte("kept"), mod)
		if err == nil || string(dst) != "kept" {
			t.Errorf("%+v: err %v, dst %q", mod, err, dst)
		}
	}
	r := storage.NewReader([]byte{7, 0, 0, 0})
	if ReadMod(r); r.Err() == nil {
		t.Error("a modification of unknown kind decoded")
	}
}

// reencode lays a decoded segment out again.
func reencode(t testing.TB, seg *segment) []byte {
	t.Helper()
	buf, err := appendSegmentHead(nil, seg)
	if err != nil {
		t.Fatalf("re-encoding a decoded segment: %v", err)
	}
	return append(buf, seg.replica...)
}

// TestSegmentRoundTrip: base and delta segments of a chain with
// non-empty queues, all three modification kinds and a namespace decode
// to what was written and re-encode to the same bytes.
func TestSegmentRoundTrip(t *testing.T) {
	_, m, wal, _ := chainFixture(t, DefaultChainDepth)
	m.SetNamespace("shard1/east")
	if err := apply(m, Delete("PS", storage.I(201))); err != nil {
		t.Fatal(err)
	}
	for kind, from := range map[segmentKind]uint64{segmentBase: 0, segmentDelta: 7} {
		data, err := m.checkpointSegment(kind, from, wal.LastLSN())
		if err != nil {
			t.Fatal(err)
		}
		seg, err := decodeSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		if seg.kind != kind || seg.ns != "shard1/east" || seg.fromLSN != from || seg.lsn != wal.LastLSN() {
			t.Errorf("decoded header %+v", seg)
		}
		if len(seg.queues) != len(m.aliases) {
			t.Fatalf("decoded %d queues, want %d", len(seg.queues), len(m.aliases))
		}
		for i, alias := range m.aliases {
			if seg.queues[i].alias != alias || fmt.Sprint(seg.queues[i].mods) != fmt.Sprint(m.deltas[alias]) {
				t.Errorf("queue %d: %+v, want %s %v", i, seg.queues[i], alias, m.deltas[alias])
			}
		}
		if !bytes.Equal(reencode(t, seg), data) {
			t.Errorf("kind %d segment re-encoded to different bytes", kind)
		}
	}
}

// TestSegmentRefusesGobLayout: version 1 segments were gob
// envelopes; their first bytes (captured from the last commit that wrote
// them) fail with the version error, as base or as delta, and so does a
// recovery handed one.
func TestSegmentRefusesGobLayout(t *testing.T) {
	for name, prefix := range map[string]string{
		"base":  "55ff950301010d636865636b706f696e7444544f01ff96000105010756657273696f6e01040001034c534e0106000107",
		"delta": "5affa30301010864656c746144544f01ffa4000106010756657273696f6e010400010746726f6d4c534e01060001034c",
	} {
		data, _ := hex.DecodeString(prefix)
		want := fmt.Sprintf("checkpoint segment version %d, want 2", data[0])
		if _, err := decodeSegment(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("gob-era %s segment: %v", name, err)
		}
		if _, err := RecoverChain(liveDB(t), paperView, RestoreChain(data, nil, 0, 0), nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("recovering from a gob-era %s segment: %v", name, err)
		}
	}
}

// FuzzDecodeSegment: the segment decoder reads bytes that came off a
// disk. It must fail, or hand out a segment that re-encodes to exactly
// the bytes it was given — never panic, never size an allocation by a
// count the bytes cannot hold.
func FuzzDecodeSegment(f *testing.F) {
	_, m, wal, chain := chainFixture(f, DefaultChainDepth)
	m.SetNamespace("ns")
	base, err := m.checkpointSegment(segmentBase, 0, wal.LastLSN())
	if err != nil {
		f.Fatal(err)
	}
	for _, valid := range append([][]byte{base, chain.base}, chain.deltas...) {
		f.Add(valid)
		for _, b := range testenv.Damaged(valid, 6) {
			f.Add(b)
		}
	}
	f.Add([]byte{segmentVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})            // inflated queue count
	f.Add([]byte{segmentVersion, 1, 0, 0, 0, 1, 1, 'a', 0xff, 0xff, 0xff, 0xff, 0x0f}) // inflated queue length
	f.Add([]byte{segmentVersion, 2, 0, 0, 0, 0})                                       // unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(data)
		if err != nil {
			return
		}
		if got := reencode(t, seg); !bytes.Equal(got, data) {
			t.Fatalf("decoded segment re-encodes to %x, read from %x", got, data)
		}
	})
}

// TestDeltaCheckpointAllocsIndependentOfQueueLength: a delta checkpoint
// reads the queues in place and encodes into a reused scratch buffer, so
// its allocation count is a constant — the segment handed to the chain
// and a handful of fixed-size headers — whether 2 or 398 modifications
// are pending.
func TestDeltaCheckpointAllocsIndependentOfQueueLength(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	allocs := func(pending int) float64 {
		db := liveDB(t)
		r := newChainRun(t, db, paperView, 1<<30)
		if err := r.chain.Checkpoint(r.m); err != nil {
			t.Fatal(err)
		}
		applyN(t, r.m, 1000, pending)
		if err := r.m.ProcessBatch("PS", 2); err != nil {
			t.Fatal(err)
		}
		if err := r.chain.Checkpoint(r.m); err != nil { // warms the scratch buffer
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.chain.Checkpoint(r.m); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4), allocs(400)
	t.Logf("allocs per delta checkpoint: %.0f with 2 pending, %.0f with 398", short, long)
	if short > 6 || long != short {
		t.Errorf("delta checkpoint made %.0f allocations with 2 pending and %.0f with 398; want the same handful", short, long)
	}
}
