package hotstuff

import (
	"bytes"
	"testing"
)

// FuzzDecodeBlock hardens the block codec against malformed wire input:
// it must never panic, and decoding must be canonical — any input that
// decodes is exactly the re-encoding of what it decoded to, so the hash
// of the wire bytes is the block's hash.
func FuzzDecodeBlock(f *testing.F) {
	seed := &Block{
		View:   3,
		Parent: GenesisHash,
		Cmds:   []Command{{ID: 1, Payload: []byte("SET a 1")}, {ID: 2}},
	}
	enc := seed.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	f.Add(append(append([]byte(nil), enc...), 0))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if !bytes.Equal(b.Encode(), data) {
			t.Fatalf("decoded block re-encodes differently:\n in  %x\n out %x", data, b.Encode())
		}
	})
}
