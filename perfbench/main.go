// Command perfbench is the repository benchmark. One invocation runs one
// workload for a time budget and prints, as the last line of stdout, one
// JSON object: whether the outputs were correct, how many operations were
// attempted and failed, and every metric BENCHMARK.json names — the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
// It measures the layers from outside: it calls only the public functions
// of lumiere/internal/* and changes no program code. The per-layer CPU
// shares come from a CPU profile of the benchmark's own process; the
// per-layer costs (*_ns) from timing each layer's public functions on
// inputs shaped like the workload's. NOTES.md records why each workload
// exists and what each metric means.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sim-chaos-sweep --seed 7 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh at build time.
var commit = "unknown"

// workloads maps each workload name BENCHMARK.json lists to the function that runs it.
var workloads = map[string]func(*run){
	"sim-massive-n":    massiveN,
	"sim-smr-overload": smrOverload,
	"sim-chaos-sweep":  chaosSweep,
	"tcp-cluster":      tcpCluster,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric names
// and units it must print.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// run is one invocation's state. Workloads fill values by metric name;
// main selects the set to print and attaches units from BENCHMARK.json.
type run struct {
	name   string
	seed   int64
	budget time.Duration
	trace  bool

	attempted, failed int64
	problems          []string

	values map[string]float64

	// shapeN is the system size the layer cost probes use.
	shapeN int

	// profiles holds one CPU profile per measured section (traced runs).
	profiles []*bytes.Buffer
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) add(name string, v float64) { r.values[name] += v }

// incorrect records an output-correctness failure; any one makes the
// run's result incorrect and its exit status non-zero.
func (r *run) incorrect(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// startMeasure marks the start of a measured section: in a traced run a
// CPU profile covers each section, and the shares sum over all of them.
func (r *run) startMeasure() {
	if !r.trace {
		return
	}
	b := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(b); err != nil {
		r.incorrect("start CPU profile: %v", err)
		return
	}
	r.profiles = append(r.profiles, b)
}

// stopMeasure ends the measured section.
func (r *run) stopMeasure() {
	if r.trace {
		pprof.StopCPUProfile()
	}
}

// repeat runs unit once, then again while another run is expected to end
// within the budget, and returns each run's wall time. The budget counts
// from the first call.
func (r *run) repeat(unit func() time.Duration) []time.Duration {
	start := time.Now()
	var walls []time.Duration
	var sum time.Duration
	for {
		w := unit()
		walls = append(walls, w)
		sum += w
		mean := sum / time.Duration(len(walls))
		if time.Since(start)+mean > r.budget {
			return walls
		}
	}
}

// medianDur returns the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	sort.Float64s(s)
	return time.Duration(median(s))
}

// median returns the median of sorted, averaging the middle two of an
// even count.
func median(sorted []float64) float64 {
	m := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[m]
	}
	return (sorted[m-1] + sorted[m]) / 2
}

// quantile returns the q-quantile of sorted by the nearest-rank method.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// setupTimes runs setup at least minReps times and until minTotal has
// passed, and returns the median duration: a set-up of microseconds is
// repeated often enough that its median is steady.
func setupTimes(minReps int, minTotal time.Duration, setup func() time.Duration) time.Duration {
	var ds []time.Duration
	start := time.Now()
	for len(ds) < minReps || time.Since(start) < minTotal {
		ds = append(ds, setup())
	}
	return medianDur(ds)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machineContext describes where the numbers were measured.
func machineContext() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	ctx := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        model,
		"commit":     commit,
	}
	b, _ := json.Marshal(ctx) // a map of strings and ints always marshals
	return string(b)
}

// cpuTicks returns the machine's total and stolen CPU ticks so far; a VM
// whose host is busy loses time to steal, which slows every timing.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64) // a malformed field counts as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	record := flag.Bool("record", false, "print the workload's output digest for --seed and exit (sim-* only)")
	flag.Parse()

	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need a known --workload (got %q), --seconds ≥ 1 and --trace 0 or 1\n", *name)
		os.Exit(2)
	}
	if *record {
		d, ok := goldenDigest(*name, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no golden outputs\n", *name)
			os.Exit(2)
		}
		fmt.Printf("%s %d %s\n", *name, *seed, d)
		return
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}

	fmt.Println("context:", machineContext())
	total0, steal0 := cpuTicks()
	r := &run{
		name:   *name,
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		trace:  *traceFlag == 1,
		values: make(map[string]float64),
		shapeN: 4,
	}
	drive(r)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		fmt.Printf("machine: %.1f%% of CPU time stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	r.set("max_rss_mb", maxRSSMB())
	if r.attempted > 0 {
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
	if r.trace {
		r.set("bench.traced_wall_s", r.values["wall_s"])
		r.set("bench.traced_commit_p50_ms", r.values["commit_p50_ms"])
		if err := attributeProfile(r); err != nil {
			r.incorrect("CPU profile: %v", err)
		}
		layerCosts(r)
	}

	list := sp.EndToEnd
	if r.trace {
		list = sp.PerLayer
	}
	out := report{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(list))}
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !r.trace {
			// Every end-to-end metric is measured on every workload.
			r.incorrect("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		r.incorrect("no operation was attempted")
		out.Attempted = 1
	}
	for _, p := range r.problems {
		fmt.Println("INCORRECT:", p)
	}
	out.Correct = len(r.problems) == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}
