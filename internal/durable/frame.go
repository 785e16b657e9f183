package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// WAL frame format. Every record is framed as
//
//	[u32le payload length][u32le CRC32C of payload][payload]
//
// and the payload is an ivm.WALRecord in the packed codec the checkpoint
// segments use (storage/rowcodec.go):
//
//	payload := lsn:uvarint tag:byte body     tag = version<<4 | kind
//	body    := mod                  an arrival (ivm.AppendMod's form)
//	         | alias k:varint       a drain commit
//
// CRC32C (Castagnoli) is hardware-accelerated on every platform the
// toolchain targets and — unlike a plain length check — catches the bit
// flips and mid-frame tears the fault model injects. The frame length
// lives *outside* the checksummed payload, so a corrupt length cannot
// send the scanner past the tear: the scanner bounds-checks the length
// against the remaining bytes first and treats any overrun as a torn
// tail.

// frameHeaderSize is the fixed per-frame overhead: length + CRC32C.
const frameHeaderSize = 8

// crcTable is the Castagnoli polynomial table shared by frames,
// checkpoint segments, and the manifest.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcOf returns the CRC32C of data.
func crcOf(data []byte) uint32 { return crc32.Checksum(data, crcTable) }

// appendFrame appends one framed record to dst and returns the extended
// slice.
func appendFrame(dst []byte, rec ivm.WALRecord) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst, err := appendRecordPayload(dst, rec)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crcOf(payload))
	return dst, nil
}

// readFrame decodes the frame starting at data[off]. It returns the
// record and the offset past the frame, or an error describing the first
// defect: a torn header, a length overrunning the remaining bytes, a
// checksum mismatch, or an undecodable payload. Callers treat any error
// as "the log ends here".
func readFrame(data []byte, off int) (ivm.WALRecord, int, error) {
	var zero ivm.WALRecord
	rest := data[off:]
	if len(rest) < frameHeaderSize {
		return zero, 0, fmt.Errorf("torn frame header: %d trailing bytes", len(rest))
	}
	n := int(binary.LittleEndian.Uint32(rest))
	sum := binary.LittleEndian.Uint32(rest[4:])
	if n <= 0 || n > len(rest)-frameHeaderSize {
		return zero, 0, fmt.Errorf("frame length %d overruns %d remaining bytes (torn tail)", n, len(rest)-frameHeaderSize)
	}
	payload := rest[frameHeaderSize : frameHeaderSize+n]
	if got := crcOf(payload); got != sum {
		return zero, 0, fmt.Errorf("frame checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	rec, err := decodeRecordPayload(payload)
	if err != nil {
		return zero, 0, fmt.Errorf("decoding frame payload: %w", err)
	}
	return rec, off + frameHeaderSize + n, nil
}

// payloadVersion guards against decoding payloads of another layout. It
// rides in the high nibble of the kind byte, not in a leading byte of its
// own: version 1 payloads (no version, values as text) began with the
// uvarint LSN, which can start with any byte, so no leading byte tells
// the layouts apart — but their kind byte was 0 or 1, high nibble 0.
const payloadVersion = 2

// appendRecordPayload appends the payload encoding of rec to dst.
func appendRecordPayload(dst []byte, rec ivm.WALRecord) ([]byte, error) {
	dst = binary.AppendUvarint(dst, rec.LSN)
	dst = append(dst, payloadVersion<<4|byte(rec.Kind))
	switch rec.Kind {
	case ivm.WALArrival:
		return ivm.AppendMod(dst, rec.Mod)
	case ivm.WALDrain:
		return binary.AppendVarint(storage.AppendString(dst, rec.Alias), int64(rec.K)), nil
	}
	return dst, fmt.Errorf("unknown wal record kind %d", rec.Kind)
}

// decodeRecordPayload is appendRecordPayload's inverse; trailing bytes
// are a defect (a frame holds exactly one record).
func decodeRecordPayload(payload []byte) (ivm.WALRecord, error) {
	r := storage.NewReader(payload)
	lsn, tag := r.Uvarint(), r.Byte()
	if v := tag >> 4; r.Err() == nil && v != payloadVersion {
		return ivm.WALRecord{}, fmt.Errorf("wal payload version %d, want %d (0: the unversioned version 1)", v, payloadVersion)
	}
	rec := ivm.WALRecord{LSN: lsn, Kind: ivm.WALKind(tag & 0xf)}
	switch rec.Kind {
	case ivm.WALArrival:
		rec.Mod = ivm.ReadMod(r)
	case ivm.WALDrain:
		rec.Alias, rec.K = r.Str(), int(r.Varint())
	default:
		r.Fail("unknown wal record kind %d", rec.Kind)
	}
	return rec, r.Done()
}
