package durable

import (
	"encoding/binary"
	"fmt"

	"abivm/internal/storage"
)

// manifestVersion guards against reading manifests of another layout;
// version 1 was a gob stream, which never starts with this byte.
const manifestVersion = 2

// manifestName is the single well-known file in a store directory; every
// other artifact is reached through it.
const manifestName = "MANIFEST"

// segmentRef names one checkpoint delta segment in the manifest and
// carries everything recovery needs to validate it without decoding:
// content checksum and the FromLSN→LSN chain link.
type segmentRef struct {
	Name    string
	CRC     uint32
	FromLSN uint64
	LSN     uint64
}

// manifest is the checkpoint chain's shape as the MANIFEST file records
// it. Gen is the base generation counter that keeps artifact names fresh
// across chain resets (a stale same-named file from an earlier
// generation can never shadow a current one). The WAL segments are
// deliberately *not* listed — their names carry their own first-LSN, and
// recovery trusts frame checksums plus LSN continuity rather than a
// catalog that would need rewriting on every sync.
type manifest struct {
	Namespace string
	Gen       uint64
	BaseName  string
	BaseCRC   uint32
	BaseLSN   uint64
	Deltas    []segmentRef
}

// encodeManifest serializes m as a 4-byte little-endian CRC32C followed
// by the payload it covers, in the packed codec (storage/rowcodec.go):
//
//	payload := version:byte namespace gen:uvarint
//	           basename basecrc:uvarint baselsn:uvarint
//	           deltas:count (name crc:uvarint fromlsn:uvarint lsn:uvarint)*
//
// The checksum-first layout means a truncated or bit-flipped manifest is
// detected before the payload is parsed at all.
func encodeManifest(m *manifest) []byte {
	out := storage.AppendString(append(make([]byte, 4, 128), manifestVersion), m.Namespace)
	out = storage.AppendString(binary.AppendUvarint(out, m.Gen), m.BaseName)
	out = binary.AppendUvarint(binary.AppendUvarint(out, uint64(m.BaseCRC)), m.BaseLSN)
	out = binary.AppendUvarint(out, uint64(len(m.Deltas)))
	for _, ref := range m.Deltas {
		out = binary.AppendUvarint(storage.AppendString(out, ref.Name), uint64(ref.CRC))
		out = binary.AppendUvarint(binary.AppendUvarint(out, ref.FromLSN), ref.LSN)
	}
	binary.LittleEndian.PutUint32(out, crcOf(out[4:]))
	return out
}

// minRefSize is the smallest encoded segmentRef (an empty name and three
// one-byte numbers); the decoder caps the claimed delta count by it.
const minRefSize = 4

// decodeManifest is encodeManifest's inverse; any defect — short file,
// checksum mismatch, wrong version, a payload that does not parse to its
// last byte — comes back as an error the recovery ladder treats as a
// corrupt manifest.
func decodeManifest(data []byte) (*manifest, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("durable: manifest truncated to %d bytes", len(data))
	}
	sum := binary.LittleEndian.Uint32(data)
	if got := crcOf(data[4:]); got != sum {
		return nil, fmt.Errorf("durable: manifest checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	r := storage.NewReader(data[4:])
	if v := r.Byte(); v != manifestVersion {
		return nil, fmt.Errorf("durable: manifest version %d, want %d", v, manifestVersion)
	}
	m := &manifest{Namespace: r.Str(), Gen: r.Uvarint(), BaseName: r.Str(), BaseCRC: readCRC(r), BaseLSN: r.Uvarint()}
	m.Deltas = make([]segmentRef, r.Count(minRefSize))
	for i := range m.Deltas {
		m.Deltas[i] = segmentRef{Name: r.Str(), CRC: readCRC(r), FromLSN: r.Uvarint(), LSN: r.Uvarint()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("durable: decoding manifest: %w", err)
	}
	return m, nil
}

// readCRC reads a checksum stored as a uvarint.
func readCRC(r *storage.Reader) uint32 {
	v := r.Uvarint()
	if v > 0xffffffff {
		r.Fail("checksum %d overflows 32 bits", v)
	}
	return uint32(v)
}
