package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lumiere/internal/crypto"
	"lumiere/internal/metrics"
	"lumiere/internal/msg"
	"lumiere/internal/nettcp"
	"lumiere/internal/network"
	"lumiere/internal/sim"
	"lumiere/internal/statemachine"
	"lumiere/internal/types"
	"lumiere/internal/workload"
)

// This file times each layer's public functions directly, on inputs
// shaped like the workload's (r.shapeN is the workload's system size).
// The costs are per call, in nanoseconds.

// probeTime is how long each probe repeats its operation.
const probeTime = 40 * time.Millisecond

// nsPerOp repeats op for at least probeTime and returns the mean cost.
func nsPerOp(op func()) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < probeTime {
		for i := 0; i < 16; i++ {
			op()
		}
		n += 16
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// nsPerBatch times batches of batch calls to op, running settle untimed
// after each batch, for at least probeTime of timed work.
func nsPerBatch(batch int, op func(), settle func()) float64 {
	var timed time.Duration
	n := 0
	for timed < probeTime {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		timed += time.Since(t0)
		n += batch
		settle()
	}
	return float64(timed.Nanoseconds()) / float64(n)
}

func layerCosts(r *run) {
	cryptoCosts(r)
	n := r.shapeN
	cfg := types.NewConfig((n-1)/3, 50*time.Millisecond)
	qc := &msg.QC{V: 1}

	// Scheduler: build and commit one n-recipient multicast.
	s := sim.New(r.seed)
	s.SetSink(func(types.NodeID, types.NodeID, any) {})
	r.set("sim.multicast_commit_ns", nsPerBatch(64, func() {
		mc := s.Multicast(0, qc)
		at := s.Now().Add(time.Millisecond)
		for i := 0; i < n; i++ {
			mc.Add(types.NodeID(i), at)
		}
		mc.Commit()
	}, func() { s.RunFor(time.Millisecond) }))

	// Network: one broadcast to n attached endpoints (delivery excluded).
	s2 := sim.New(r.seed)
	nw := network.NewNet(s2, cfg, 0, network.Fixed{D: 5 * time.Millisecond})
	var ep network.Endpoint
	for i := 0; i < cfg.N; i++ {
		e := nw.Attach(types.NodeID(i), network.HandlerFunc(func(types.NodeID, msg.Message) {}))
		if i == 0 {
			ep = e
		}
	}
	r.set("network.broadcast_ns", nsPerBatch(64, func() { ep.Broadcast(qc) },
		func() { s2.RunFor(10 * time.Millisecond) }))

	// Metrics: one honest send, n sends per instant as a broadcast makes.
	opts := []metrics.Option{metrics.WithEpochWords(types.View(n))}
	if n >= 64 {
		opts = append(opts, metrics.WithSparse(1<<20))
	}
	col := metrics.NewCollector(func(types.NodeID) bool { return true }, opts...)
	var sends int64
	r.set("metrics.onsend_ns", nsPerOp(func() {
		sends++
		col.OnSend(0, 1, qc, types.Time(sends/int64(n)*int64(time.Microsecond)), true)
	}))

	// Workload and state machine: the overload workload's client model.
	eng := workload.NewEngine(*overloadScenarios(r.seed)[0].Workload)
	var now int64
	r.set("workload.submit_ns", nsPerOp(func() {
		now += int64(time.Second) / overloadRate
		eng.SubmitNext(now)
	}))
	payloads := make([][]byte, 1024)
	for i := range payloads {
		now += int64(time.Second) / overloadRate
		_, pl := eng.SubmitNext(now)
		payloads[i] = append([]byte(nil), pl...)
	}
	kv := statemachine.NewKV()
	var k int
	r.set("statemachine.apply_ns", nsPerOp(func() {
		_, _ = kv.Apply(payloads[k%len(payloads)]) // SET commands cannot fail
		k++
	}))

	ns, err := tcpSendNs()
	if err != nil {
		r.incorrect("nettcp probe: %v", err)
	}
	r.set("nettcp.send_ns", ns)
}

// cryptoCosts times certificate checks: one signature, and 2f+1-signer
// aggregates at n=16 and n=256, both through the full component check (a
// certificate the suite has not seen) and the memoized path (the same
// certificate again; the memo engages only at n ≥ 64).
func cryptoCosts(r *run) {
	stmt := crypto.Statement("perfbench", 7, make([]byte, 32))
	sim16 := crypto.NewSimSuite(16, r.seed)
	sig := sim16.SignerFor(3).Sign(stmt)
	r.set("crypto.verify_ns", nsPerOp(func() { _ = sim16.Verify(stmt, sig) }))

	for _, n := range []int{16, 256} {
		s := crypto.NewSimSuite(n, r.seed)
		th := 2*((n-1)/3) + 1
		agg := aggregateOf(s, stmt, th)
		fresh := make([]crypto.Aggregate, 128)
		for i := range fresh {
			fresh[i] = agg.Clone()
		}
		t0 := time.Now()
		for _, a := range fresh {
			if err := s.VerifyAggregate(stmt, a, th); err != nil {
				r.incorrect("crypto probe n=%d: %v", n, err)
			}
		}
		r.set(fmt.Sprintf("crypto.verify_agg_ns.n%d", n), float64(time.Since(t0).Nanoseconds())/float64(len(fresh)))
		r.set(fmt.Sprintf("crypto.verify_agg_memo_ns.n%d", n), nsPerOp(func() { _ = s.VerifyAggregate(stmt, agg, th) }))
	}

	ed := crypto.NewEd25519Suite(4, r.seed)
	edAgg := aggregateOf(ed, stmt, 3)
	r.set("crypto.ed25519_verify_agg_ns", nsPerOp(func() { _ = ed.VerifyAggregate(stmt, edAgg, 3) }))
}

func aggregateOf(s crypto.Suite, stmt []byte, m int) crypto.Aggregate {
	sigs := make([]crypto.Signature, m)
	for i := range sigs {
		sigs[i] = s.SignerFor(types.NodeID(i)).Sign(stmt)
	}
	agg, err := s.Aggregate(stmt, sigs)
	if err != nil {
		panic(fmt.Sprintf("perfbench: aggregate of valid signatures: %v", err))
	}
	return agg
}

// loopbackAddrs reserves n loopback listen addresses.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// tcpSendNs measures one message through a loopback Transport pair: send,
// gob encode, socket, decode and hand-off, amortized over batches that fit
// the peer queue.
func tcpSendNs() (float64, error) {
	addrs, err := loopbackAddrs(2)
	if err != nil {
		return 0, err
	}
	var muA, muB sync.Mutex
	var got atomic.Int64
	a := nettcp.New(0, addrs, &muA, network.HandlerFunc(func(types.NodeID, msg.Message) {}))
	b := nettcp.New(1, addrs, &muB, network.HandlerFunc(func(types.NodeID, msg.Message) { got.Add(1) }))
	defer a.Close()
	defer b.Close()
	if err := b.Start(); err != nil {
		return 0, err
	}
	if err := a.Start(); err != nil {
		return 0, err
	}
	m := &msg.Request{ID: 1, Payload: make([]byte, 64)}
	wait := func(n int64) error {
		deadline := time.Now().Add(5 * time.Second)
		for got.Load() < n {
			if time.Now().After(deadline) {
				return fmt.Errorf("loopback transport delivered %d of %d messages", got.Load(), n)
			}
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}
	a.Send(1, m) // dial outside the timed section
	if err := wait(1); err != nil {
		return 0, err
	}
	const batch, batches = 1024, 8
	t0 := time.Now()
	for i := int64(1); i <= batches; i++ {
		for j := 0; j < batch; j++ {
			a.Send(1, m)
		}
		if err := wait(1 + i*batch); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / (batch * batches), nil
}
