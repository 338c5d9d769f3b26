package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck answers "do two sets of runs of the same code agree within
// the benchmark's own bounds?". It runs every workload 2 x k times, each run
// a process of its own with a seed of its own, the two sets alternating so
// that drift of the host lands on both, and prints for each end-to-end metric
// the two medians, the share by which the second is worse, the bound, and the
// spread of all 2 x k values (quartile distance over median). It returns 1
// when a gap exceeds its bound or a run was incorrect.
//
// When a timing metric's gap exceeds half its bound, raise the workload's
// round count; never widen a timing bound past 15 %, never switch to a fixed
// duration.
func runSelfcheck(k int, seed int64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(hostFacts())
	status := 0
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*k; i++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var out outcome
			if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			if !out.Correct {
				fmt.Printf("%s run %d: %d of %d operations failed\n", w.name, i, out.Failed, out.Attempted)
				status = 1
			}
			for name, m := range out.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Printf("%s (2 x %d runs)\n  %-18s %14s %14s %8s %8s %8s\n", w.name, k, "metric", "median A", "median B", "gap", "bound", "spread")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			gap := worseBy(median(a), median(b), d.higher)
			verdict := ""
			if gap > d.bound {
				verdict = "  OVER BOUND"
				status = 1
			}
			fmt.Printf("  %-18s %14.4f %14.4f %7.2f%% %7.0f%% %7.2f%%%s\n", d.name, median(a), median(b),
				100*gap, 100*d.bound, 100*spread(append(a, b...)), verdict)
		}
	}
	return status
}
