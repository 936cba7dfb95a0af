// Package oplog is the durable opportunity log: a checksummed,
// segment-based append-only record of every per-block ranked report the
// serving pipeline publishes. It exists for two consumers the paper's
// §VI/§VII empirical analyses need and restarts destroy:
//
//   - replay — `arbloop replay <dir>` re-serves recorded history through
//     the distribution tier instead of regenerating synthetic markets;
//   - priming — a restarted `serve` reads the log tail to seed its
//     per-pool dirtiness EMAs instead of re-learning them over the EMA
//     time constant.
//
// The design treats partial failure as the default execution model:
// records are length-prefixed and CRC32C-framed, segments rotate by size
// under an atomically rewritten manifest, and recovery truncates at the
// first corrupt record (the torn tail a `kill -9` leaves) instead of
// erroring — replay after any hard cut yields exactly the durable
// prefix, in order, nothing past the cut. Writes happen off the scan hot
// path through a bounded queue and a background syncer with a
// configurable fsync policy; a failing disk (ENOSPC, EIO) flips the log
// into a degraded state surfaced via /v1/healthz rather than blocking or
// killing the serving loop.
package oplog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Framing constants. Each record is
//
//	[u32 LE payload length][u32 LE CRC32C(payload)][payload]
//
// and each segment file opens with an 8-byte magic so a reader never
// mistakes an unrelated file (or a zero-filled sparse tail) for records.
const (
	// segMagic stamps the first bytes of every segment file.
	segMagic = "ARBOPLG1"
	// segHeaderSize is the length of the segment magic.
	segHeaderSize = len(segMagic)
	// frameHeaderSize prefixes every record: length + checksum.
	frameHeaderSize = 8
	// MaxRecordSize bounds one record's payload. A corrupt length field
	// must never make a reader allocate or scan gigabytes: anything
	// claiming more than this is corruption by definition. Generously
	// above any real ranked report (tens of KB).
	MaxRecordSize = 16 << 20
)

// ErrCorrupt marks a record whose frame fails validation: a zero or
// oversized length, or a checksum mismatch. Replay treats it (and a
// short tail) as the end of durable history, not an error.
var ErrCorrupt = errors.New("oplog: corrupt record")

// errShortRecord is the internal "incomplete tail" marker: the buffer
// ends before the framed record does. Indistinguishable from a torn
// final write, which is exactly how replay treats it.
var errShortRecord = errors.New("oplog: short record")

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, and the checksum most append-only log formats settle on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends payload framed as one record to buf and returns
// the extended buffer.
func appendRecord(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// decodeRecord parses the record at the start of b without copying.
// It returns the payload (aliasing b), the total framed size consumed,
// and nil on success; (nil, 0, errShortRecord) when b ends before the
// record does (a torn tail); (nil, 0, ErrCorrupt) when the frame is
// invalid (zero/oversized length or checksum mismatch). It never reads
// past len(b) and never panics on arbitrary input — the fuzz target's
// contract.
func decodeRecord(b []byte) ([]byte, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, errShortRecord
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > MaxRecordSize {
		return nil, 0, ErrCorrupt
	}
	total := frameHeaderSize + int(n)
	if len(b) < total {
		return nil, 0, errShortRecord
	}
	payload := b[frameHeaderSize:total]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, ErrCorrupt
	}
	return payload, total, nil
}
