// Package hotstuff implements chained HotStuff, the view-based BFT SMR
// protocol the paper's view synchronization work targets (HotStuff
// introduced the decoupled "PaceMaker" that Lumiere instantiates). One
// block is proposed per view and certified by a QC of 2f+1 votes; a block
// commits when it heads a three-chain of consecutive views. Any pacemaker
// in this repository can drive it through the replica.Engine interface.
package hotstuff

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"lumiere/internal/types"
)

// Hash is a block hash.
type Hash = [32]byte

// GenesisHash anchors every chain; the genesis block has view -1.
var GenesisHash = sha256.Sum256([]byte("lumiere/hotstuff/genesis"))

// Command is one client request carried in a block.
type Command struct {
	ID      uint64
	Payload []byte
}

// Block is a proposal payload: a batch of commands extending a parent.
type Block struct {
	View   types.View
	Parent Hash
	Cmds   []Command
}

// ErrBadBlock reports a malformed block encoding.
var ErrBadBlock = errors.New("hotstuff: malformed block")

// Encode serializes the block canonically (length-prefixed fields), so
// hashes are stable across runtimes. The output is sized exactly up
// front: one allocation per block.
func (b *Block) Encode() []byte {
	size := 8 + len(b.Parent) + 8
	for _, c := range b.Cmds {
		size += 16 + len(c.Payload)
	}
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.View))
	buf = append(buf, b.Parent[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(b.Cmds)))
	for _, c := range b.Cmds {
		buf = binary.BigEndian.AppendUint64(buf, c.ID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(c.Payload)))
		buf = append(buf, c.Payload...)
	}
	return buf
}

// DecodeBlock parses an encoded block. Decoding is strict: truncated
// input and trailing bytes are rejected, so a block that decodes
// re-encodes to exactly data, and sha256(data) is its hash. All payloads
// share one allocation, detached from data.
func DecodeBlock(data []byte) (*Block, error) {
	rest := data
	getU64 := func(what string) (uint64, error) {
		if len(rest) < 8 {
			return 0, fmt.Errorf("%w: truncated %s", ErrBadBlock, what)
		}
		v := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		return v, nil
	}
	view, err := getU64("view")
	if err != nil {
		return nil, err
	}
	b := &Block{View: types.View(view)}
	if len(rest) < len(b.Parent) {
		return nil, fmt.Errorf("%w: truncated parent", ErrBadBlock)
	}
	rest = rest[copy(b.Parent[:], rest):]
	n, err := getU64("command count")
	if err != nil {
		return nil, err
	}
	// Every command takes at least 16 bytes, which bounds the count by
	// the input before anything is allocated for it.
	if n > 1<<20 || n > uint64(len(rest)/16) {
		return nil, fmt.Errorf("%w: absurd command count %d", ErrBadBlock, n)
	}
	b.Cmds = make([]Command, 0, n)
	total := 0
	for i := uint64(0); i < n; i++ {
		id, err := getU64("command id")
		if err != nil {
			return nil, err
		}
		plen, err := getU64("payload length")
		if err != nil {
			return nil, err
		}
		if plen > 1<<24 {
			return nil, fmt.Errorf("%w: absurd payload size %d", ErrBadBlock, plen)
		}
		if uint64(len(rest)) < plen {
			return nil, fmt.Errorf("%w: truncated payload", ErrBadBlock)
		}
		b.Cmds = append(b.Cmds, Command{ID: id, Payload: rest[:plen:plen]})
		rest = rest[plen:]
		total += int(plen)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBlock, len(rest))
	}
	payloads := make([]byte, 0, total)
	for i := range b.Cmds {
		p := b.Cmds[i].Payload
		off := len(payloads)
		payloads = append(payloads, p...)
		b.Cmds[i].Payload = payloads[off:len(payloads):len(payloads)]
	}
	return b, nil
}

// HashOf returns the block's hash. It encodes the block; callers that
// already hold the hash (the key the block was found under) or the
// encoding should use that instead.
func (b *Block) HashOf() Hash { return sha256.Sum256(b.Encode()) }
