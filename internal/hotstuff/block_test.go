package hotstuff

import (
	"bytes"
	"testing"
	"testing/quick"

	"lumiere/internal/types"
)

func TestBlockRoundTrip(t *testing.T) {
	b := &Block{
		View:   7,
		Parent: GenesisHash,
		Cmds: []Command{
			{ID: 1, Payload: []byte("SET a 1")},
			{ID: 2, Payload: nil},
			{ID: 3, Payload: []byte{0, 0xff, 0x7f}},
		},
	}
	enc := b.Encode()
	got, err := DecodeBlock(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.View != b.View || got.Parent != b.Parent || len(got.Cmds) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range b.Cmds {
		if got.Cmds[i].ID != b.Cmds[i].ID || !bytes.Equal(got.Cmds[i].Payload, b.Cmds[i].Payload) {
			t.Fatalf("cmd %d mismatch", i)
		}
	}
	if got.HashOf() != b.HashOf() {
		t.Fatal("hash changed across round trip")
	}
}

func TestBlockRoundTripQuick(t *testing.T) {
	f := func(view int64, id uint64, payload []byte) bool {
		b := &Block{View: types.View(view), Parent: GenesisHash,
			Cmds: []Command{{ID: id, Payload: payload}}}
		got, err := DecodeBlock(b.Encode())
		if err != nil {
			return false
		}
		return got.HashOf() == b.HashOf()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	valid := (&Block{View: 1, Parent: GenesisHash, Cmds: []Command{{ID: 9, Payload: []byte("SET abc")}}}).Encode()
	cases := map[string][]byte{
		"nil":                   nil,
		"short":                 {1, 2, 3},
		"absurd command count":  bytes.Repeat([]byte{0xff}, 48),
		"truncated parent":      valid[:20],
		"truncated payload":     valid[:len(valid)-3],
		"count exceeds input":   valid[:48],
		"trailing bytes":        append(append([]byte(nil), valid...), 0, 0, 0),
		"trailing after header": append((&Block{View: 1}).Encode(), 0),
	}
	for name, c := range cases {
		if _, err := DecodeBlock(c); err == nil {
			t.Errorf("%s: garbage decoded", name)
		}
	}
}

func TestHashDistinguishesBlocks(t *testing.T) {
	a := &Block{View: 1, Parent: GenesisHash}
	b := &Block{View: 2, Parent: GenesisHash}
	if a.HashOf() == b.HashOf() {
		t.Fatal("distinct blocks share a hash")
	}
	c := &Block{View: 1, Parent: GenesisHash, Cmds: []Command{{ID: 1}}}
	if a.HashOf() == c.HashOf() {
		t.Fatal("commands not hashed")
	}
}
