package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/hotstuff"
	"lumiere/internal/msg"
	"lumiere/internal/statemachine"
	"lumiere/internal/workload"
)

// Workload sizes. Each sim-* unit is a pure function of the seed, so its
// outputs can be pinned by digest (golden.json).
const (
	// massiveSize and massiveDuration shape sim-massive-n: the only cells
	// that reach the n≥64 certificate memo, multicast heap events,
	// bitset quorums and sparse metrics.
	massiveSize     = 256
	massiveDuration = 60 * time.Second

	// The overload cell offers more than the simulated commit capacity
	// (about 6.5k cmd/s at f=1, batch 256), so the mempool backlog grows
	// for the whole run.
	overloadRate     = 8000
	overloadBatch    = 256
	overloadDuration = 10 * time.Second

	// chaosCells is the chaos sweep's matrix size (cycled over all six
	// protocols), and chaosBase the base seed its scenarios are drawn
	// from. The matrix is fixed; --seed seeds every cell's randomness.
	// At --seed 42 the unit is exactly harness.ChaosSweep(120, 42), which
	// includes the known-failing chaos-79-nk20 cell.
	chaosCells = 120
	chaosBase  = 42

	// Set-up is repeated at least setupReps times and for setupTime, and
	// its median reported.
	setupReps = 5
	setupTime = 200 * time.Millisecond
)

//go:embed golden.json
var goldenJSON []byte

// goldens maps workload → seed → output digest, recorded at the commit
// the benchmark was defined on. A run on a seed without a golden still
// checks that every repetition in the run produced the same digest.
func goldens() map[string]map[string]string {
	g := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: embedded golden.json: %v", err))
	}
	return g
}

// unit is one measured execution of a sim-* workload.
type unit struct {
	results []*harness.Result
	elapsed []time.Duration // per cell
	wall    time.Duration
}

// simWorkload describes one sim-* workload: its scenario matrix for a
// seed and the sweep's worker count.
type simWorkload struct {
	scenarios func(seed int64) []harness.Scenario
	workers   int
}

var simWorkloads = map[string]simWorkload{
	"sim-massive-n":    {massiveScenarios, 1},
	"sim-smr-overload": {overloadScenarios, 1},
	"sim-chaos-sweep":  {chaosScenarios, runtime.NumCPU()},
}

func massiveScenarios(seed int64) []harness.Scenario {
	var out []harness.Scenario
	for _, p := range harness.LargeNProtocols {
		s := harness.LargeNScenario(p, massiveSize, seed)
		s.Duration = massiveDuration
		out = append(out, s)
	}
	return out
}

func overloadScenarios(seed int64) []harness.Scenario {
	return []harness.Scenario{{
		Name:            "smr-overload",
		Protocol:        harness.ProtoLumiere,
		F:               1,
		Delta:           50 * time.Millisecond,
		DeltaActual:     5 * time.Millisecond,
		Duration:        overloadDuration,
		Seed:            seed,
		SMR:             true,
		SMRBatchSize:    overloadBatch,
		NewStateMachine: func() statemachine.StateMachine { return statemachine.NewCounter() },
		Workload: &workload.Config{
			Clients:    harness.ThroughputClients,
			Rate:       overloadRate,
			PayloadPad: harness.ThroughputPayloadPad,
		},
	}}
}

// chaosScenarios is the matrix harness.ChaosSweep(chaosCells, chaosBase)
// runs, with each cell's seed derived from seed instead. Drawing the
// matrix itself from --seed would make the unit's work vary by ±20%
// between seeds, more than any bound the benchmark could hold.
func chaosScenarios(seed int64) []harness.Scenario {
	out := make([]harness.Scenario, chaosCells)
	for i := range out {
		s := harness.GenChaosScenario(harness.DeriveSeed(chaosBase, i))
		s.Protocol = harness.AllProtocols[i%len(harness.AllProtocols)]
		s.Name = fmt.Sprintf("chaos-%02d-%s", i, s.Protocol)
		s.Seed = harness.DeriveSeed(seed, i)
		out[i] = s
	}
	return out
}

// exec runs one unit on the sweep engine, seeds kept.
func (w simWorkload) exec(seed int64) unit {
	scenarios := w.scenarios(seed)
	t0 := time.Now()
	sr := harness.Sweep(scenarios, harness.SweepOptions{Workers: w.workers, KeepSeeds: true})
	u := unit{wall: time.Since(t0)}
	for _, c := range sr.Cells {
		u.results = append(u.results, c.Result)
		u.elapsed = append(u.elapsed, c.Elapsed)
	}
	return u
}

// cellLine is the fingerprinted output of one cell: everything a
// performance change must leave exactly as it was. It covers every
// column of harness.ChaosReport.Table() too.
func cellLine(res *harness.Result, problems []string) string {
	st := res.Collector.CommitLatencyStats(res.GST)
	sync := "stalled"
	if d, ok := res.Collector.FirstDecisionAfter(res.GST); ok {
		sync = d.At.Sub(res.GST).String()
	}
	return fmt.Sprintf("%s %s events=%d aborted=%v sends=%d words=%d decisions=%d sync=%s omitted=%d commits=%d p50=%d p99=%d violations=%d problems=%d",
		res.Scenario.Name, res.Scenario.Protocol, res.Events, res.Aborted, res.Collector.HonestSends(), res.Collector.WordsTotal(),
		res.DecisionCount(), sync, res.Omitted, res.Collector.CommitCount(), st.P50, st.P99, len(res.Violations), len(problems))
}

// goldenDigest runs one unit of a sim-* workload and returns its digest.
func goldenDigest(name string, seed int64) (string, bool) {
	w, ok := simWorkloads[name]
	if !ok {
		return "", false
	}
	return summarize(w.exec(seed)).digest, true
}

func massiveN(r *run)    { r.shapeN = massiveSize; simRun(r) }
func smrOverload(r *run) { simRun(r) }
func chaosSweep(r *run)  { simRun(r) }

// summary is what a run keeps of one unit once its results are dropped.
type summary struct {
	digest string
	wall   time.Duration
	cellMs []float64
	busy   time.Duration // sum of cell times
	failed []string      // one line per failed cell
	counts map[string]float64
}

// summarize checks and counts one unit. A cell fails on a conformance
// problem, which covers invariant violations, event-budget aborts and SMR
// divergence.
func summarize(u unit) summary {
	sm := summary{wall: u.wall, counts: map[string]float64{}}
	for _, e := range u.elapsed {
		sm.cellMs = append(sm.cellMs, float64(e.Nanoseconds())/1e6)
		sm.busy += e
	}
	h := sha256.New()
	for _, res := range u.results {
		probs := harness.ConformanceReport(res)
		fmt.Fprintln(h, cellLine(res, probs))
		if len(probs) > 0 {
			sm.failed = append(sm.failed, fmt.Sprintf("%s (seed %d): %s", res.Scenario.Name, res.Scenario.Seed, strings.Join(probs, "; ")))
		}
		c := res.Collector
		sm.counts["sim.events"] += float64(res.Events)
		sm.counts["network.sends"] += float64(c.HonestSends())
		sm.counts["network.words"] += float64(c.WordsTotal())
		sm.counts["msg.qc_sends"] += float64(c.KindCount(msg.KindQC))
		sm.counts["core.decisions"] += float64(res.DecisionCount())
		sm.counts["core.heavy_syncs"] += float64(len(c.HeavySyncViews(res.GST)))
		sm.counts["hotstuff.commits"] += float64(c.CommitCount())
		sm.counts["workload.submitted"] += float64(res.Injected)
		// hotstuff.commits counts commands only where the workload
		// engine records them (sim-smr-overload); committed blocks are
		// counted on every SMR cell, the chaos cells' injector included.
		blocks := 0
		for i, e := range res.Engines {
			if hs, ok := e.(*hotstuff.Core); ok && honestAt(res, i) {
				sm.counts["hotstuff.backlog_end"] += float64(hs.MempoolLen())
				blocks = max(blocks, hs.CommittedCount())
			}
		}
		sm.counts["hotstuff.committed_blocks"] += float64(blocks)
	}
	sm.counts["harness.cells"] = float64(len(u.results))
	sm.digest = hex.EncodeToString(h.Sum(nil)[:16])
	return sm
}

// simRun drives a sim-* workload: set-up timing, repeated measured units,
// output checks and metrics.
func simRun(r *run) {
	w := simWorkloads[r.name]

	// Set-up: build the scenario matrix and one fresh arena, and boot every
	// cell in it (replica construction and the events at time zero) — the
	// work a sweep does before its cells reach steady state.
	setup := setupTimes(setupReps, setupTime, func() time.Duration {
		t0 := time.Now()
		arena := harness.NewArena()
		for _, s := range w.scenarios(r.seed) {
			s.Duration = time.Nanosecond
			harness.RunIn(arena, s)
		}
		return time.Since(t0)
	})
	r.set("setup_s", setup.Seconds())

	var sums []summary
	walls := r.repeat(func() time.Duration {
		// Every unit starts from the same heap state, not from the
		// previous unit's garbage.
		runtime.GC()
		r.startMeasure()
		u := w.exec(r.seed)
		r.stopMeasure()
		sums = append(sums, summarize(u))
		return u.wall
	})

	// Outputs: every repetition must match the first, and the first must
	// match the golden recorded for this seed, if there is one.
	first := &sums[0]
	want := goldens()[r.name][strconv.FormatInt(r.seed, 10)]
	if want != "" && first.digest != want {
		r.incorrect("%s seed %d: output digest %s, golden %s", r.name, r.seed, first.digest, want)
	}
	if want == "" {
		fmt.Printf("golden: none recorded for %s seed %d; checking repetitions agree\n", r.name, r.seed)
	}
	for i := range sums {
		if sums[i].digest != first.digest {
			r.incorrect("%s seed %d: repetition %d digest %s differs from %s", r.name, r.seed, i, sums[i].digest, first.digest)
		}
	}
	// A cell's time is its median over the repetitions, so a burst of
	// machine noise during one repetition does not move the percentiles.
	cellMs := make([]float64, len(first.cellMs))
	for c := range cellMs {
		reps := make([]float64, len(sums))
		for i := range sums {
			reps[i] = sums[i].cellMs[c]
		}
		sort.Float64s(reps)
		cellMs[c] = median(reps)
	}
	for _, f := range first.failed {
		fmt.Println("failed cell", f)
	}
	r.attempted = int64(first.counts["harness.cells"])
	r.failed = int64(len(first.failed))

	// End-to-end: the median unit. A simulator user's operation is one
	// cell, so commit_p50_ms is the mean cell time here: the p50 over
	// sim-massive-n's two unlike cells would be the short LP22 cell alone,
	// whose time varied by 0.28 (quartile spread) between runs.
	sort.Float64s(cellMs)
	var cellSum float64
	for _, ms := range cellMs {
		cellSum += ms
	}
	wall := medianDur(walls)
	events := first.counts["sim.events"]
	r.set("wall_s", wall.Seconds())
	r.set("decisions_per_s", first.counts["core.decisions"]/wall.Seconds())
	r.set("commit_p50_ms", cellSum/float64(len(cellMs)))
	fmt.Printf("units=%d cells/unit=%.0f wall_s=%v decisions=%.0f events=%.0f failed=%d digest=%s\n",
		len(walls), first.counts["harness.cells"], walls, first.counts["core.decisions"], events, r.failed, first.digest)

	// Per-layer: the work counts are deterministic for the seed.
	for k, v := range first.counts {
		r.set(k, v)
	}
	r.set("sim.events_per_s", events/wall.Seconds())
	r.set("sim.step_ns", float64(wall.Nanoseconds())/max(events, 1))
	workers := min(w.workers, int(first.counts["harness.cells"]))
	r.set("harness.worker_busy_frac", first.busy.Seconds()/(float64(workers)*first.wall.Seconds()))
	r.set("harness.cell_p50_ms", quantile(cellMs, 0.50))
	r.set("harness.cell_p90_ms", quantile(cellMs, 0.90))
}

// honestAt reports whether replica i of a run was honest.
func honestAt(res *harness.Result, i int) bool {
	for _, c := range res.Scenario.Corruptions {
		if int(c.Node) == i && c.Behavior != adversary.BehaviorHonest {
			return false
		}
	}
	return true
}
