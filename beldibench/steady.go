package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs two sets of runs of each named workload, interleaved run
// by run (A, B, A, B, …, each run a fresh process with its own seed, since
// host speed drifts), and prints each set's median and quartiles per
// end-to-end metric, the spread over all runs, and how far set B's median
// sits from set A's.
func steadiness(name string, seed int64, seconds, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ws := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []workload{w}
	}
	for _, w := range ws {
		var sets [2]map[string][]float64
		var failShare [2][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for i := 0; i < 2*runs; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0", "-out", out}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", w.name, i, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s run %d: output checks failed", w.name, i)
			}
			for k, v := range r.Metrics {
				sets[i%2][k] = append(sets[i%2][k], v.Value)
			}
			failShare[i%2] = append(failShare[i%2], float64(r.Failed)/float64(r.Attempted))
			fmt.Fprintf(os.Stderr, "%s run %d (set %c): throughput_rps %.1f cpu_ms_per_req %.4f req_p50_ms %.3f\n", w.name, i, "AB"[i%2],
				r.Metrics["throughput_rps"].Value, r.Metrics["cpu_ms_per_req"].Value, r.Metrics["req_p50_ms"].Value)
		}
		fmt.Printf("%s: %d runs per set, %ds each; failed share A %v B %v\n", w.name, runs, seconds, failShare[0], failShare[1])
		fmt.Printf("%-20s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %8s\n",
			"metric", "A median", "A q1", "A q3", "A sprd", "B median", "B q1", "B q3", "B sprd", "all sprd", "B vs A")
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			am, bm := median(a), median(b)
			pq1, pq3 := quartiles(append(append([]float64(nil), a...), b...))
			pm := median(append(append([]float64(nil), a...), b...))
			fmt.Printf("%-20s %12.4f %12.4f %12.4f %7.1f%% | %12.4f %12.4f %12.4f %7.1f%% | %7.1f%% %+7.1f%%\n",
				m.name, am, aq1, aq3, 100*(aq3-aq1)/am, bm, bq1, bq3, 100*(bq3-bq1)/bm,
				100*(pq3-pq1)/pm, 100*(bm-am)/am)
		}
	}
	return nil
}
