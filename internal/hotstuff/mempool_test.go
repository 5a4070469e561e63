package hotstuff

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lumiere/internal/crypto"
	"lumiere/internal/msg"
	"lumiere/internal/sim"
	"lumiere/internal/types"
)

// captureEP is an endpoint that records broadcasts and drops the rest,
// so a single core's proposals can be read back without a network.
type captureEP struct{ out []msg.Message }

func (*captureEP) ID() types.NodeID               { return 0 }
func (*captureEP) Send(types.NodeID, msg.Message) {}
func (e *captureEP) Broadcast(m msg.Message)      { e.out = append(e.out, m) }
func (e *captureEP) lastProposal() *msg.Proposal  { return e.out[len(e.out)-1].(*msg.Proposal) }

// newPoolCore returns a lone core that leads every view.
func newPoolCore(batch int) (*Core, *captureEP) {
	cfg := types.NewConfig(1, 100*time.Millisecond)
	ep := &captureEP{}
	c := New(Config{Base: cfg, BatchSize: batch}, ep, sim.New(1), crypto.NewSimSuite(cfg.N, 2),
		func(types.View) types.NodeID { return 0 }, nil, nil, nil, nil)
	return c, ep
}

// commitCmds executes a block carrying cmds on top of the executed
// prefix, as if a three-chain had just certified it.
func commitCmds(c *Core, cmds []Command) {
	b := &Block{View: c.lastExec + 1, Parent: GenesisHash, Cmds: cmds}
	c.execChain(b.HashOf(), b)
}

// refPool is the naive mempool the lazy queue must match: an arrival
// ordered slice with linear removal.
type refPool struct {
	q       []Command
	applied map[uint64]bool
}

func (r *refPool) enqueue(cmd Command) {
	if r.applied[cmd.ID] {
		return
	}
	for _, e := range r.q {
		if e.ID == cmd.ID {
			return
		}
	}
	r.q = append(r.q, cmd)
}

func (r *refPool) commit(cmds []Command) {
	for _, cmd := range cmds {
		if r.applied[cmd.ID] {
			continue
		}
		r.applied[cmd.ID] = true
		for i, e := range r.q {
			if e.ID == cmd.ID {
				r.q = append(r.q[:i], r.q[i+1:]...)
				break
			}
		}
	}
}

// checkCleared fails if any slot of the mempool's backing array outside
// the window [poolHead, len) still references a command.
func checkCleared(t *testing.T, c *Core) {
	t.Helper()
	full := c.mempool[:cap(c.mempool)]
	for i, cmd := range full {
		if (i < c.poolHead || i >= len(c.mempool)) && (cmd.ID != 0 || cmd.Payload != nil) {
			t.Fatalf("vacated slot %d (head %d, len %d) still holds command %d",
				i, c.poolHead, len(c.mempool), cmd.ID)
		}
	}
}

// TestMempoolMatchesNaiveModel drives the lazy-deletion mempool and the
// naive slice through the same seeded random histories: enqueues
// (fresh, duplicate and already-applied IDs), commits of blocks other
// leaders proposed (including commands this replica never saw, which
// may arrive later and must then be refused), and LeaderStart, whose
// batch must be the naive slice's prefix at every step.
func TestMempoolMatchesNaiveModel(t *testing.T) {
	const batch = 8
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, ep := newPoolCore(batch)
			ref := &refPool{applied: make(map[uint64]bool)}
			nextID := uint64(1)
			cmdFor := func(id uint64) Command { return Command{ID: id, Payload: []byte(fmt.Sprint("SET k ", id))} }
			view := types.View(0)
			compactions := 0
			for step := 0; step < 4000; step++ {
				prevLen := len(c.mempool)
				switch op := rng.Intn(100); {
				case op < 55: // enqueue: mostly fresh, sometimes an old ID
					id := nextID
					if rng.Intn(4) == 0 {
						id = 1 + uint64(rng.Int63n(int64(nextID)))
					} else {
						nextID++
					}
					c.EnqueueCommand(id, cmdFor(id).Payload)
					ref.enqueue(cmdFor(id))
				case op < 80: // propose, and usually commit the proposal
					c.LeaderStart(view, types.TimeInf)
					view++
					p := ep.lastProposal()
					b, err := DecodeBlock(p.Block)
					if err != nil {
						t.Fatalf("step %d: own proposal does not decode: %v", step, err)
					}
					want := ref.q[:min(batch, len(ref.q))]
					if len(b.Cmds) != len(want) {
						t.Fatalf("step %d: batch of %d, naive model proposes %d", step, len(b.Cmds), len(want))
					}
					for i := range want {
						if b.Cmds[i].ID != want[i].ID {
							t.Fatalf("step %d: batch[%d] = %d, naive model has %d", step, i, b.Cmds[i].ID, want[i].ID)
						}
					}
					if rng.Intn(3) > 0 {
						commitCmds(c, b.Cmds)
						ref.commit(b.Cmds)
					}
				default: // another leader's block: pooled, old and unseen IDs
					var cmds []Command
					for k := rng.Intn(2 * batch); k > 0; k-- {
						switch r := rng.Intn(3); {
						case r == 0 && len(ref.q) > 0:
							cmds = append(cmds, ref.q[rng.Intn(len(ref.q))])
						case r == 1:
							cmds = append(cmds, cmdFor(1+uint64(rng.Int63n(int64(nextID)))))
						default:
							cmds = append(cmds, cmdFor(nextID))
							nextID++
						}
					}
					commitCmds(c, cmds)
					ref.commit(cmds)
				}
				if c.MempoolLen() != len(ref.q) {
					t.Fatalf("step %d: MempoolLen = %d, naive model has %d", step, c.MempoolLen(), len(ref.q))
				}
				if len(c.mempool) < prevLen {
					compactions++
				}
				checkCleared(t, c)
			}
			if compactions < 3 {
				t.Fatalf("only %d compactions in the run; the model check needs several", compactions)
			}
		})
	}
}

// TestMempoolCompactionDropsPayloads checks that compaction leaves no
// reference to a removed command's payload anywhere in the backing
// array, and that a command applied without ever being pooled changes
// nothing.
func TestMempoolCompactionDropsPayloads(t *testing.T) {
	c, _ := newPoolCore(0)
	for id := uint64(1); id <= 100; id++ {
		c.EnqueueCommand(id, make([]byte, 64))
	}
	// Commit every other command but the first: dead entries are
	// interleaved, so the head cannot skip them and compaction must.
	var cmds []Command
	for id := uint64(2); id <= 100; id += 2 {
		cmds = append(cmds, Command{ID: id})
	}
	for id := uint64(3); id <= 61; id += 2 {
		cmds = append(cmds, Command{ID: id})
	}
	commitCmds(c, cmds)
	if c.MempoolLen() != 20 {
		t.Fatalf("live = %d, want 20", c.MempoolLen())
	}
	if dead := len(c.mempool) - c.poolHead - c.MempoolLen(); len(c.mempool) == 100 || dead > c.MempoolLen() {
		t.Fatalf("no compaction: %d entries, %d dead", len(c.mempool), dead)
	}
	checkCleared(t, c)
	want := []uint64{1}
	for id := uint64(63); id <= 99; id += 2 {
		want = append(want, id)
	}
	got := c.nextBatch()
	if len(got) != len(want) {
		t.Fatalf("batch of %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Fatalf("batch[%d] = %d, want %d (arrival order)", i, got[i].ID, want[i])
		}
	}
	entries := len(c.mempool)
	commitCmds(c, []Command{{ID: 1000}})
	if c.MempoolLen() != 20 || len(c.mempool) != entries {
		t.Fatal("a command never pooled changed the mempool")
	}
	c.EnqueueCommand(1000, nil)
	if c.MempoolLen() != 20 {
		t.Fatal("an applied command entered the mempool")
	}
}
