// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload through the program's public entry points (catalog,
// core.RunContext, and the server/sched/worker HTTP stack), checks the
// outputs against references computed outside the program, and prints one
// JSON object as its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around the calls into each layer and reports the per-layer
// metrics instead. -repeat N runs the workload N times in child processes
// (seeds seed..seed+N-1) plus one traced run, and prints the median and
// quartiles of every metric and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark input set. setup builds everything a round
// needs several times over and returns each set-up's duration; round runs the
// workload's fixed list of operations once with inputs derived from the
// seed and the round number, checking every output; layers derives the
// per-layer metrics from the traced rounds. A workload built with a nil
// tracer installs no span wrappers at all.
type workload interface {
	setup() ([]float64, error)
	round(r int, traced bool) (roundResult, error)
	layers(rounds []roundResult) map[string]metric
	close()
}

// roundResult is what one round measured. Operations are explorations
// (in process) or daemon runs; latencies and hv hold, by problem, the wall
// time and the normalized hypervolume of each completed operation.
type roundResult struct {
	wall      float64
	attempted int
	failed    int
	latencies map[string][]float64
	hv        map[string][]float64
	// In-process workloads keep their explorations for the per-layer
	// metrics, and the bytes their journals hold; the daemon workload
	// derives its per-layer values while the round's state is at hand.
	xs           []*exploration
	journalBytes int64
	layer        map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(seed int64, dir string, tr *tracer) workload{
	"paper-dse":      newPaperDSE,
	"engine-pool":    newEnginePool,
	"daemon-tenants": newDaemonTenants,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-dse, engine-pool or daemon-tenants")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measuring budget in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times in child processes and print quartiles")
		workDir = flag.String("dir", ".bench_build/work", "scratch directory for journals, data directories and traces")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fatalf("unknown -workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *repeat > 0 {
		if err := repeatMode(*name, *seed, *seconds, *repeat); err != nil {
			fatalf("%v", err)
		}
		return
	}
	rep, err := run(*name, *seed, *seconds, *trace == 1, *workDir)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one measured run of a workload. It attempts whole rounds
// and starts another only while the exploration time measured so far plus
// the median round fits in the budget; output checks run between rounds
// and are not counted. In traced mode every round runs twice on the same
// inputs, untraced and then traced, so the overhead is their difference on
// identical work.
func run(name string, seed int64, seconds float64, traced bool, workDir string) (*report, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w := workloads[name](seed, dir, tr)
	defer w.close()
	setups, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	var plain, traces []roundResult
	var spent []float64 // measured time of each round (or pair of rounds)
	begin := time.Now()
	for r := 0; ; r++ {
		// The wall-clock cap stops a run whose operations all fail, which
		// measure no time.
		if r > 0 && (sum(spent)+median(spent) > seconds || time.Since(begin).Seconds() > 3*seconds) {
			break
		}
		res, err := w.round(r, false)
		plain = append(plain, res)
		wall := res.wall
		if err == nil && traced {
			tr.on.Store(true)
			res, err = w.round(r, true)
			tr.on.Store(false)
			traces = append(traces, res)
			wall += res.wall
		}
		spent = append(spent, wall)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: round %d failed: %v\n", r, err)
			rep.Correct = false
			break
		}
	}
	measured := plain
	if traced {
		measured = traces
	}
	for _, res := range measured {
		rep.Attempted += res.attempted
		rep.Failed += res.failed
	}

	if !traced {
		var walls []float64
		completed := 0
		for _, res := range plain {
			walls = append(walls, res.wall)
			for _, l := range res.latencies {
				completed += len(l)
			}
		}
		vals := map[string]float64{
			"setup_s":           median(setups),
			"explore_s":         mean(walls),
			"runs_per_s":        float64(completed) / sum(walls),
			"run_latency_p50_s": meanOfMedians(plain, func(r roundResult) map[string][]float64 { return r.latencies }),
			"hypervolume":       meanOfMedians(plain, func(r roundResult) map[string][]float64 { return r.hv }),
			"peak_rss_mb":       peakRSSMB(),
		}
		for name, unit := range endToEndUnits {
			rep.Metrics[name] = metric{vals[name], unit}
		}
		return rep, nil
	}

	rep.Metrics = w.layers(traces)
	var tWalls, overhead []float64
	for i, res := range traces {
		tWalls = append(tWalls, res.wall)
		overhead = append(overhead, res.wall-plain[i].wall)
	}
	rep.Metrics["trace.explore_s"] = metric{median(tWalls), traceUnits["trace.explore_s"]}
	rep.Metrics["trace.overhead_s"] = metric{median(overhead), traceUnits["trace.overhead_s"]}
	rep.Metrics["trace.spans"] = metric{float64(tr.len()), traceUnits["trace.spans"]}
	self := tr.selfTimes()
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := tr.write(path, self); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; self time by span:\n", tr.len(), path)
	for _, s := range self {
		fmt.Fprintf(os.Stderr, "  %-24s %6d spans  self %9.4f s  total %9.4f s\n", s.Name, s.Count, s.SelfS, s.TotalS)
	}
	return rep, nil
}

// meanOfMedians averages, over the problems a workload explores, the
// median of one per-operation figure (latency or normalized hypervolume)
// over that problem's operations. Problems differ in cost by up to an
// order of magnitude, so a median across all operations would land between
// problems and jump with the mix.
func meanOfMedians(rounds []roundResult, figure func(roundResult) map[string][]float64) float64 {
	byProblem := map[string][]float64{}
	for _, res := range rounds {
		for p, v := range figure(res) {
			byProblem[p] = append(byProblem[p], v...)
		}
	}
	var meds []float64
	for _, p := range slices.Sorted(maps.Keys(byProblem)) {
		meds = append(meds, median(byProblem[p]))
	}
	return mean(meds)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// exploreSeed derives the engine seed of operation k in round r.
func exploreSeed(seed int64, r, k int) int64 {
	return seed*1_000_003 + int64(r)*7_919 + int64(k)
}

func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}
