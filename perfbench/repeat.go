package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// repeatMode runs the workload n times, each in its own child process
// with the next seed, then once traced, and prints the median, quartiles
// and spread (interquartile distance over median) of every metric. The
// benchmark's bounds are set from these spreads.
func repeatMode(name string, seed int64, seconds float64, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	attempted, failed := 0, 0
	for i := range n {
		rep, err := child(exe, name, seed+int64(i), seconds, 0)
		if err != nil {
			return err
		}
		attempted += rep.Attempted
		failed += rep.Failed
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	traced, err := child(exe, name, seed, seconds, 1)
	if err != nil {
		return err
	}

	fmt.Printf("%s: %d runs from seed %d, %g s each; %d of %d operations failed\n",
		name, n, seed, seconds, failed, attempted)
	fmt.Printf("%-20s %-7s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	summary := map[string]any{}
	for _, k := range slices.Sorted(maps.Keys(values)) {
		v := values[k]
		med := median(v)
		q := [3]float64{med, med, med}
		if len(v) >= 2 {
			q = quartiles(v)
		}
		spread := (q[2] - q[0]) / med
		fmt.Printf("%-20s %-7s %12.6g %12.6g %12.6g %8.4f\n", k, units[k], med, q[0], q[2], spread)
		summary[k] = map[string]float64{"median": med, "q1": q[0], "q3": q[2], "spread": spread}
	}
	fmt.Printf("traced run (seed %d):\n", seed)
	for _, k := range slices.Sorted(maps.Keys(traced.Metrics)) {
		m := traced.Metrics[k]
		fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	overhead := traced.Metrics["trace.overhead_s"].Value
	fmt.Printf("tracing overhead: %.4g s per round (traced explore_s %.4g s minus untraced %.4g s on the same inputs)\n",
		overhead, traced.Metrics["trace.explore_s"].Value, traced.Metrics["trace.explore_s"].Value-overhead)
	line, _ := json.Marshal(map[string]any{"workload": name, "runs": n, "seed": seed, "metrics": summary, "trace_overhead_s": overhead})
	fmt.Println(string(line))
	return nil
}

// child runs one benchmark run in a child process and parses its result.
func child(exe, name string, seed int64, seconds float64, trace int) (*report, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = slices.Clone(sc.Bytes())
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("seed %d: parsing result: %w", seed, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("seed %d: output checks failed", seed)
	}
	return &rep, nil
}
