package oplog

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord hammers the record decoder with arbitrary bytes. The
// decoder's contract: never panic, never read past the input, and on
// success return exactly the framed payload. Wired into `make fuzz`.
func FuzzDecodeRecord(f *testing.F) {
	// Seed corpus: valid frames, a torn tail, corrupt lengths, a CRC flip.
	valid := appendRecord(nil, []byte(`{"version":1}`))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                       // torn tail
	f.Add([]byte{})                                   // empty
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	flipped := append([]byte(nil), valid...)
	flipped[frameHeaderSize] ^= 0xFF
	f.Add(flipped) // checksum mismatch
	two := appendRecord(append([]byte(nil), valid...), []byte("second"))
	f.Add(two)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := decodeRecord(data)
		if err != nil {
			if payload != nil || n != 0 {
				t.Fatalf("error return leaked data: payload=%v n=%d err=%v", payload, n, err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errShortRecord) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n < frameHeaderSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(payload) != n-frameHeaderSize {
			t.Fatalf("payload %d bytes but frame consumed %d", len(payload), n)
		}
		// Round-trip: re-encoding the payload reproduces the frame.
		if re := appendRecord(nil, payload); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
	})
}
