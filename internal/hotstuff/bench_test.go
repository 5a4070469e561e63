package hotstuff

import (
	"fmt"
	"testing"
)

// BenchmarkMempoolCommit measures committing one 256-command block taken
// from the front of a standing backlog (and refilling the backlog by as
// many fresh commands), as a leader under sustained overload does. Its
// ns/op should not grow with the backlog.
func BenchmarkMempoolCommit(b *testing.B) {
	const batch = 256
	payload := make([]byte, 64)
	for _, backlog := range []int{1 << 10, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			c, _ := newPoolCore(batch)
			next := uint64(1)
			for ; next <= uint64(backlog); next++ {
				c.EnqueueCommand(next, payload)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commitCmds(c, c.nextBatch())
				for k := 0; k < batch; k++ {
					c.EnqueueCommand(next, payload)
					next++
				}
			}
			if c.MempoolLen() != backlog {
				b.Fatalf("backlog drifted to %d", c.MempoolLen())
			}
		})
	}
}

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkBytes []byte
	sinkHash  Hash
)

// benchBlock is a 256-command block of 64-byte payloads, the shape the
// SMR throughput runs propose.
func benchBlock() *Block {
	blk := &Block{View: 7, Parent: GenesisHash, Cmds: make([]Command, 256)}
	for i := range blk.Cmds {
		blk.Cmds[i] = Command{ID: uint64(i + 1), Payload: make([]byte, 64)}
	}
	return blk
}

func BenchmarkBlockEncode(b *testing.B) {
	blk := benchBlock()
	b.ReportAllocs()
	b.SetBytes(int64(len(blk.Encode())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = blk.Encode()
	}
}

func BenchmarkBlockDecode(b *testing.B) {
	enc := benchBlock().Encode()
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockHashOf(b *testing.B) {
	blk := benchBlock()
	b.ReportAllocs()
	b.SetBytes(int64(len(blk.Encode())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHash = blk.HashOf()
	}
}
