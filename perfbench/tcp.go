package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/nettcp"
	"lumiere/internal/types"
)

// The tcp-cluster workload: a loopback n=4 Lumiere SMR cluster (ed25519,
// gob over TCP) driven by one open-loop client at a geometric ladder of
// offered rates. A command's latency runs from the instant it was due to
// its first commit at any node, so a stalled client or cluster is charged
// for every command that waited behind the stall.
const (
	tcpF     = 1
	tcpDelta = 50 * time.Millisecond
	// sloLatency is the p99 limit a ladder rung must meet (4Δ).
	sloLatency = 4 * tcpDelta
	// drainTimeout bounds how long after its due time a command may
	// still commit; a command not committed by then has failed.
	drainTimeout = 3 * time.Second
	bootReps     = 3
	payloadPad   = 48
)

// ladder is the offered load, in commands per second, of each rung. Its
// top is about half the rate where the cluster's p99 starts to miss the
// limit when the machine is slow (6400 cmd/s), so every command commits
// and tcp.slo_rate moves only on a regression or a much slower machine.
// At a 30 s budget the lowest rung still gives each window's p99 ten
// samples beyond it.
var ladder = []int{450, 900, 1800, 3600}

// passes is how many times the client climbs the ladder. The cluster
// sometimes stops deciding for about one second; repeating each rung and
// taking medians keeps one such stall from deciding a run's figures,
// while tcp.slo_missed_windows and tcp.decision_gap_max_ms report it.
const passes = 3

// cluster is a booted cluster plus the client's view of every command.
type cluster struct {
	nodes  []*nettcp.Node
	origin time.Time

	due []int64 // per command: due time, ns since origin (read-only once set)

	mu        sync.Mutex
	commit    []int64 // per command: first commit, ns since origin (0 = none)
	foreign   int     // committed payloads the client never sent
	decisions []int64 // decision instants, ns since origin
	// Per node, the state its commit log implies: each command takes
	// effect at its first committed inclusion. A leader re-proposes its
	// uncommitted batch in each view it leads, so most commands are
	// committed two or three times; only the first may take effect.
	applied    []map[uint64]bool
	model      []map[string]string
	inclusions int64
	duplicates int64
}

func (c *cluster) sinceOrigin() int64 { return int64(time.Since(c.origin)) }

func (c *cluster) onDecision() {
	t := c.sinceOrigin()
	c.mu.Lock()
	c.decisions = append(c.decisions, t)
	c.mu.Unlock()
}

func (c *cluster) onCommit(node int, b *hotstuff.Block) {
	t := c.sinceOrigin()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cmd := range b.Cmds {
		key, val, seq, ok := parseCommand(cmd.Payload)
		if !ok || seq >= len(c.due) {
			c.foreign++
			continue
		}
		c.inclusions++
		if c.applied[node][cmd.ID] {
			c.duplicates++
			continue
		}
		c.applied[node][cmd.ID] = true
		c.model[node][key] = val
		if c.commit[seq] == 0 {
			c.commit[seq] = t
		}
	}
}

// commandPayload builds command seq. Commands 2k and 2k+1 write the same
// key, so a store that applied them in another order than its commit log
// shows it.
func commandPayload(seq int) []byte {
	b := fmt.Appendf(nil, "SET c%d %d:", seq/2, seq)
	return append(b, bytes.Repeat([]byte{'x'}, payloadPad)...)
}

// parseCommand recovers the key, value and sequence number of a command
// built by commandPayload.
func parseCommand(p []byte) (key, val string, seq int, ok bool) {
	rest, ok := bytes.CutPrefix(p, []byte("SET "))
	if !ok {
		return "", "", 0, false
	}
	k, v, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return "", "", 0, false
	}
	digits, _, ok := bytes.Cut(v, []byte(":"))
	if !ok {
		return "", "", 0, false
	}
	seq, err := strconv.Atoi(string(digits))
	return string(k), string(v), seq, err == nil && seq >= 0
}

// connected reports whether every node has written to every peer.
func (c *cluster) connected() bool {
	for _, n := range c.nodes {
		for _, p := range n.Stats().Peers {
			if p.Sent == 0 {
				return false
			}
		}
	}
	return true
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Close()
	}
}

// bootCluster starts the nodes and waits until all peers are connected.
func bootCluster(seed int64, commands int) (*cluster, time.Duration, error) {
	t0 := time.Now()
	addrs, err := loopbackAddrs(3*tcpF + 1)
	if err != nil {
		return nil, 0, err
	}
	base := types.Config{N: 3*tcpF + 1, F: tcpF, Delta: tcpDelta, X: types.DefaultX}
	c := &cluster{
		origin:  t0,
		due:     make([]int64, commands),
		commit:  make([]int64, commands),
		applied: make([]map[uint64]bool, base.N),
		model:   make([]map[string]string, base.N),
	}
	for i := range addrs {
		i := i
		c.applied[i] = map[uint64]bool{}
		c.model[i] = map[string]string{}
		n, err := nettcp.StartNode(nettcp.NodeConfig{
			ID:         types.NodeID(i),
			Addrs:      addrs,
			Base:       base,
			Seed:       seed,
			SMR:        true,
			Start:      t0,
			OnDecision: func(types.View) { c.onDecision() },
			OnCommit:   func(b *hotstuff.Block) { c.onCommit(i, b) },
		})
		if err != nil {
			c.close()
			return nil, 0, err
		}
		c.nodes = append(c.nodes, n)
	}
	for !c.connected() {
		if time.Since(t0) > 10*time.Second {
			c.close()
			return nil, 0, fmt.Errorf("cluster peers not connected after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return c, time.Since(t0), nil
}

// window is one rung of one pass: commands [lo, hi) offered at rate.
type window struct {
	rate   int
	lo, hi int
}

func tcpCluster(r *run) {
	// The windows fill the budget, leaving room for set-up and the drain.
	winDur := (r.budget - 2*time.Second) / (passes * time.Duration(len(ladder)))
	if winDur < 500*time.Millisecond {
		winDur = 500 * time.Millisecond
	}
	var wins []window
	total := 0
	for p := 0; p < passes; p++ {
		for _, rate := range ladder {
			k := int(int64(rate) * int64(winDur) / int64(time.Second))
			wins = append(wins, window{rate, total, total + k})
			total += k
		}
	}

	var boots []time.Duration
	var c *cluster
	for i := 0; i < bootReps; i++ {
		ci, d, err := bootCluster(r.seed+int64(i), total)
		if err != nil {
			r.incorrect("boot cluster: %v", err)
			r.attempted = 1
			r.failed = 1
			return
		}
		boots = append(boots, d)
		if c != nil {
			c.close()
		}
		c = ci
	}
	defer c.close()
	r.set("setup_s", medianDur(boots).Seconds())

	// The schedule is fixed before the client starts: command k of a
	// window is due k/rate seconds into it.
	start := c.sinceOrigin() + int64(10*time.Millisecond)
	at := start
	for _, w := range wins {
		for k := w.lo; k < w.hi; k++ {
			c.due[k] = at + int64(k-w.lo)*int64(time.Second)/int64(w.rate)
		}
		at += int64(winDur)
	}
	end := at

	r.startMeasure()
	var maxLate int64
	submitted := make([]int64, total)
	submitFailed := 0
	for seq := 0; seq < total; seq++ {
		if wait := c.due[seq] - c.sinceOrigin(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		submitted[seq] = c.sinceOrigin()
		maxLate = max(maxLate, submitted[seq]-c.due[seq])
		if err := c.nodes[seq%len(c.nodes)].Submit(commandPayload(seq)); err != nil {
			submitFailed++
		}
	}
	var depth int64
	for _, n := range c.nodes {
		for _, p := range n.Stats().Peers {
			depth += p.Enqueued - p.Sent - p.WriteDrops
		}
	}
	// Drain: wait until every command committed or its deadline passed.
	deadline := c.due[total-1] + int64(drainTimeout)
	var lastCommit int64
	for {
		c.mu.Lock()
		done := 0
		for _, t := range c.commit {
			if t != 0 {
				done++
				lastCommit = max(lastCommit, t)
			}
		}
		c.mu.Unlock()
		if done == total || c.sinceOrigin() > deadline {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.stopMeasure()
	c.close()

	// Safety: the commit logs are prefix-consistent, and each node's store
	// holds exactly the state its commit log implies when each command
	// takes effect once, at its first committed inclusion. A SET applied
	// again later in its original order leaves no trace in a KV store, so
	// this cannot see every double application.
	var logs [][]hotstuff.Hash
	longest := 0
	for i, n := range c.nodes {
		logs = append(logs, n.CommittedHashes())
		if len(logs[i]) > len(logs[longest]) {
			longest = i
		}
	}
	for i, l := range logs {
		for j, h := range l {
			if h != logs[longest][j] {
				r.incorrect("node %d commit log diverges from node %d at block %d", i, longest, j)
				break
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.nodes {
		kv := n.KV()
		if kv.Len() != len(c.model[i]) {
			r.incorrect("node %d store holds %d keys, its commit log implies %d", i, kv.Len(), len(c.model[i]))
		}
		for k, want := range c.model[i] {
			if got, _ := kv.Get(k); got != want {
				r.incorrect("node %d store has %s=%.20q, its commit log implies %.20q", i, k, got, want)
				break
			}
		}
	}
	if c.foreign > 0 {
		r.incorrect("%d committed commands were never submitted", c.foreign)
	}

	// Latency per command; an uncommitted command failed and counts as
	// late as the drain deadline, so it misses any latency limit.
	lat := make([]float64, total)
	failed := 0
	for seq := range lat {
		t := c.commit[seq]
		if t == 0 {
			failed++
			t = c.due[seq] + int64(drainTimeout)
		}
		lat[seq] = float64(t-c.due[seq]) / 1e6
	}
	r.attempted = int64(total)
	r.failed = int64(failed)

	// Per window: p50, p99 and whether it met the SLO (p99 within the
	// limit and every command committed). A rate meets the SLO when most
	// of its windows do; tcp.slo_rate is the offered rate the client
	// actually achieved on the highest such rate's windows, 0 if none.
	var p50s, p99s, decRates []float64
	met := map[int]int{}
	achieved := map[int]float64{}
	missed := 0
	for _, w := range wins {
		wl := append([]float64(nil), lat[w.lo:w.hi]...)
		sort.Float64s(wl)
		uncommitted := 0
		for k := w.lo; k < w.hi; k++ {
			if c.commit[k] == 0 {
				uncommitted++
			}
		}
		p50, p99 := quantile(wl, 0.50), quantile(wl, 0.99)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		if p99 <= float64(sloLatency.Milliseconds()) && uncommitted == 0 {
			met[w.rate]++
		} else {
			missed++
		}
		decRates = append(decRates, float64(decisionsBetween(c.decisions, c.due[w.lo], c.due[w.lo]+int64(winDur)))/winDur.Seconds())
		achieved[w.rate] += float64(w.hi-w.lo-1) / (float64(submitted[w.hi-1]-submitted[w.lo]) / 1e9) / passes
		fmt.Printf("window rate=%d cmds=%d p50_ms=%.2f p99_ms=%.2f max_ms=%.2f uncommitted=%d\n",
			w.rate, w.hi-w.lo, p50, p99, wl[len(wl)-1], uncommitted)
	}
	var sloRate float64
	for _, rate := range ladder {
		if 2*met[rate] > passes {
			sloRate = achieved[rate]
		}
	}
	sort.Float64s(p50s)
	sort.Float64s(p99s)
	sort.Float64s(decRates)
	all := append([]float64(nil), lat...)
	sort.Float64s(all)

	var inWindow []int64
	for _, d := range c.decisions {
		if d >= start && d <= end {
			inWindow = append(inWindow, d)
		}
	}
	sort.Slice(inWindow, func(i, j int) bool { return inWindow[i] < inWindow[j] })
	var gap int64
	for i := 1; i < len(inWindow); i++ {
		g := inWindow[i] - inWindow[i-1]
		gap = max(gap, g)
		if g > int64(sloLatency) {
			fmt.Printf("decision gap %.1f ms at %.3f s into the ladder\n", float64(g)/1e6, float64(inWindow[i-1]-start)/1e9)
		}
	}
	if lastCommit < end {
		lastCommit = end
	}

	r.set("wall_s", float64(lastCommit-start)/1e9)
	r.set("decisions_per_s", quantile(decRates, 0.50))
	r.set("commit_p50_ms", quantile(p50s, 0.50))
	r.set("tcp.commit_p99_ms", quantile(p99s, 0.50))
	r.set("tcp.slo_rate", sloRate)
	r.set("tcp.commit_p99_all_ms", quantile(all, 0.99))
	r.set("tcp.slo_missed_windows", float64(missed))
	fmt.Printf("commands=%d failed=%d decisions=%d max_late_ms=%.2f decision_gap_max_ms=%.2f\n",
		total, failed, len(inWindow), float64(maxLate)/1e6, float64(gap)/1e6)

	r.set("core.decisions", float64(len(inWindow)))
	r.set("workload.submitted", float64(total-submitFailed))
	r.set("hotstuff.commits", float64(total-failed))
	r.set("hotstuff.committed_blocks", float64(len(logs[longest])))
	r.set("hotstuff.dup_inclusion_frac", float64(c.duplicates)/float64(max(c.inclusions, 1)))
	r.set("client.max_late_ms", float64(maxLate)/1e6)
	r.set("tcp.decision_gap_max_ms", float64(gap)/1e6)
	r.set("nettcp.queue_depth_end", float64(depth))
	for _, n := range c.nodes {
		col := n.Metrics()
		r.add("network.sends", float64(col.HonestSends()))
		r.add("network.words", float64(col.WordsTotal()))
		r.add("msg.qc_sends", float64(col.KindCount(msg.KindQC)))
		st := n.Stats()
		r.add("nettcp.decode_errors", float64(st.DecodeErrors))
		for _, p := range st.Peers {
			r.add("nettcp.queue_drops", float64(p.QueueDrops))
			r.add("nettcp.write_drops", float64(p.WriteDrops))
			r.add("nettcp.redials", float64(p.Redials))
		}
	}
}

// decisionsBetween counts the decisions in [from, to).
func decisionsBetween(ds []int64, from, to int64) int {
	n := 0
	for _, d := range ds {
		if d >= from && d < to {
			n++
		}
	}
	return n
}
