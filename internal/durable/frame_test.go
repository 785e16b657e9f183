package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

func frameRecords() []ivm.WALRecord {
	return []ivm.WALRecord{
		{LSN: 1, Kind: ivm.WALArrival, Mod: ivm.Insert("PS",
			storage.Row{storage.I(7), storage.F(3.25), storage.S("hello")})},
		{LSN: 2, Kind: ivm.WALArrival, Mod: ivm.Delete("PS", storage.I(-42))},
		{LSN: 3, Kind: ivm.WALArrival, Mod: ivm.Update("S",
			[]storage.Value{storage.I(1)}, storage.Row{storage.I(1), storage.S(""), storage.I(0)})},
		{LSN: 4, Kind: ivm.WALDrain, Alias: "PS", K: 3},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	var err error
	recs := frameRecords()
	for _, rec := range recs {
		if buf, err = appendFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i, want := range recs {
		got, next, err := readFrame(buf, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d round-tripped to %+v, want %+v", i, got, want)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("decoded through %d of %d bytes", off, len(buf))
	}
}

func TestFrameDetectsDamage(t *testing.T) {
	rec := frameRecords()[0]
	clean, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bit flip in payload": func(b []byte) []byte { b[len(b)-2] ^= 1; return b },
		"bit flip in crc":     func(b []byte) []byte { b[5] ^= 1; return b },
		"torn tail":           func(b []byte) []byte { return b[:len(b)-3] },
		"torn header":         func(b []byte) []byte { return b[:frameHeaderSize-1] },
		"length overrun":      func(b []byte) []byte { b[0]++; return b },
	}
	for name, damage := range cases {
		data := damage(append([]byte(nil), clean...))
		if _, _, err := readFrame(data, 0); err == nil {
			t.Errorf("%s: damage not detected", name)
		}
	}
	// The scanner keeps valid frames before the damage.
	two, err := appendFrame(append([]byte(nil), clean...), frameRecords()[1])
	if err != nil {
		t.Fatal(err)
	}
	two[len(two)-1] ^= 1
	got, next, err := readFrame(two, 0)
	if err != nil || got.LSN != 1 {
		t.Fatalf("valid leading frame rejected: %v", err)
	}
	if _, _, err := readFrame(two, next); err == nil {
		t.Error("damaged second frame accepted")
	}
}

// TestFrameRefusesPreviousLayout: version 1 payloads had no version
// and carried values as text; a frame of that layout (captured from the
// last commit that wrote it, checksum intact) fails with the version
// error whatever its LSN — 2 and 0x20 are the ones a leading or a
// whole-byte version check would take for the current layout. A record
// of no known kind is refused on both sides.
func TestFrameRefusesPreviousLayout(t *testing.T) {
	v1, _ := hex.DecodeString("0f000000f04b780f010000000001780202693202736200")
	for _, lsn := range []byte{1, 2, payloadVersion << 4} {
		v1[frameHeaderSize] = lsn
		binary.LittleEndian.PutUint32(v1[4:], crcOf(v1[frameHeaderSize:]))
		if _, _, err := readFrame(v1, 0); err == nil || !strings.Contains(err.Error(), "wal payload version 0, want 2") {
			t.Errorf("version 1 frame with lsn %d: %v", lsn, err)
		}
	}
	if _, err := appendFrame(nil, ivm.WALRecord{LSN: 1, Kind: 7}); err == nil {
		t.Error("a record of unknown kind was framed")
	}
	if _, err := decodeRecordPayload([]byte{1, payloadVersion<<4 | 7}); err == nil {
		t.Error("a payload of unknown kind decoded")
	}
}

// FuzzReadFrame: the WAL scanner reads frames that came off a disk. A
// frame must fail, or decode to a record that frames back to exactly the
// bytes read — never panic, never step outside the data.
func FuzzReadFrame(f *testing.F) {
	var log []byte
	for _, rec := range frameRecords() {
		frame, err := appendFrame(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		log = append(log, frame...)
	}
	for _, b := range testenv.Damaged(log, 12) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			rec, next, err := readFrame(data, off)
			if err != nil {
				return
			}
			if next <= off || next > len(data) {
				t.Fatalf("frame at %d ends at %d of %d bytes", off, next, len(data))
			}
			again, err := appendFrame(nil, rec)
			if err != nil || !bytes.Equal(again, data[off:next]) {
				t.Fatalf("record %+v frames to %x (%v), read from %x", rec, again, err, data[off:next])
			}
			off = next
		}
	})
}

func testManifest() *manifest {
	return &manifest{
		Namespace: "shard0/orders",
		Gen:       9,
		BaseName:  baseSegName(9),
		BaseCRC:   0xdeadbeef,
		BaseLSN:   41,
		Deltas: []segmentRef{
			{Name: deltaSegName(9, 0), CRC: 1, FromLSN: 41, LSN: 50},
			{Name: deltaSegName(9, 1), CRC: 2, FromLSN: 50, LSN: 58},
		},
	}
}

// FuzzDecodeManifest: the same contract for the MANIFEST. The checksum
// comes first, so the fuzzer mostly exercises that gate; the seeds with
// a recomputed checksum over a damaged payload reach the parser.
func FuzzDecodeManifest(f *testing.F) {
	valid := encodeManifest(testManifest())
	f.Add(valid)
	f.Add(encodeManifest(&manifest{}))
	for _, b := range testenv.Damaged(valid, 8) {
		f.Add(b)
		if len(b) > 4 {
			f.Add(resealed(b[4:]))
		}
	}
	f.Add(resealed([]byte{manifestVersion, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})) // inflated delta count
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if again := encodeManifest(m); !bytes.Equal(again, data) {
			t.Fatalf("manifest %+v encodes to %x, read from %x", m, again, data)
		}
	})
}

// resealed puts a valid checksum in front of payload.
func resealed(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, crcOf(payload)), payload...)
}

func TestManifestRoundTripAndDamage(t *testing.T) {
	man := testManifest()
	data := encodeManifest(man)
	got, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("manifest round-tripped to %+v, want %+v", got, man)
	}
	for name, damage := range map[string]func([]byte) []byte{
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"empty":     func(b []byte) []byte { return nil },
	} {
		if _, err := decodeManifest(damage(append([]byte(nil), data...))); err == nil {
			t.Errorf("%s manifest accepted", name)
		}
	}
	// Version 1 was a gob stream behind the same checksum (this
	// one captured from the last commit that wrote it): the checksum
	// passes and the version byte refuses it.
	v1, _ := hex.DecodeString("18a79dab6cffa50301010b6d616e696665737444544f01ffa6000107010756657273696f6e01040001094e616d657370616365010c00010347656e0106000108426173654e616d65010c000107426173654352430106000107426173654c534e010600010644656c74617301ffaa00000026ffa9020101175b5d64757261626c652e7365676d656e7452656644544f01ffaa0001ffa8000040ffa70301010d7365676d656e7452656644544f01ffa800010401044e616d65010c000103435243010600010746726f6d4c534e01060001034c534e01060000002fffa6010201026e730101011e636b70742d303030303030303030303030303030312d626173652e7365670107010300")
	if _, err := decodeManifest(v1); err == nil || !strings.Contains(err.Error(), "manifest version 108, want 2") {
		t.Errorf("gob-era manifest: %v", err)
	}
	if _, err := decodeManifest(resealed(append(data[4:len(data):len(data)], 0))); err == nil {
		t.Error("manifest with a trailing byte accepted")
	}
}

func TestWALNames(t *testing.T) {
	for _, lsn := range []uint64{1, 255, 1 << 40} {
		name := walName(lsn)
		got, ok := parseWALName(name)
		if !ok || got != lsn {
			t.Errorf("walName(%d) = %s, parsed to (%d, %v)", lsn, name, got, ok)
		}
	}
	for _, bad := range []string{"wal-.log", "wal-00000000000000zz.log", "MANIFEST", "quarantine/000001-wal-0000000000000001.log"} {
		if _, ok := parseWALName(bad); ok {
			t.Errorf("parseWALName accepted %q", bad)
		}
	}
	// Lexical order must equal LSN order — the scanner relies on it.
	if walName(9) > walName(10) {
		t.Error("wal segment names do not sort by LSN")
	}
}

// discardFS drops appended bytes, so a Sync over it costs the store's
// own work and nothing else.
type discardFS struct{ FS }

func (discardFS) AppendFile(string, []byte) error { return nil }

// TestAppendRecordAllocsNothingInSteadyState: a record is framed
// straight into the store's reused buffer — once the buffer has grown to
// a step's worth of frames, appending a step and syncing it allocates
// nothing.
func TestAppendRecordAllocsNothingInSteadyState(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	st, err := NewStore(discardFS{NewMemFS()}, "ns")
	if err != nil {
		t.Fatal(err)
	}
	recs := frameRecords()
	lsn := uint64(0)
	step := func() {
		for _, rec := range recs {
			lsn++
			rec.LSN = lsn
			if err := st.AppendRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	sync := func() {
		step()
		if err := st.Sync(); err != nil { // empties the buffer, keeps its capacity
			t.Fatal(err)
		}
	}
	sync()
	if allocs := testing.AllocsPerRun(50, sync); allocs != 0 {
		t.Errorf("%d AppendRecord calls made %.0f allocations; want 0", len(recs), allocs)
	}
}
