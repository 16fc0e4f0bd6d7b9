// Command beldibench is the repository's benchmark: it runs the Beldi
// case-study applications through Deployment.Invoke on four workloads,
// checks every workload's outputs, and prints end-to-end metrics (or, with
// -trace 1, per-layer metrics from a traced run). See README.md.
//
//	beldibench -workload travel-mem -seed 1 -seconds 10 -trace 0
//	beldibench -workload all -seed 1 -seconds 10 -trace 1
//	beldibench -workload travel-gc -seconds 35 -steady 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported metric.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; reported untraced.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"req_p50_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KB"},
	{"live_heap_mb", "MB"},
	{"store_bytes_per_req", "B"},
	{"store_ops_per_req", "count"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// metric of a layer a workload does not use reads 0 there.
var perLayer = func() []metric {
	ms := []metric{
		{"platform.invocations_per_req", "count"},
		{"platform.dispatch_ms_per_req", "ms"},
		{"core.steps_per_req", "count"},
		{"core.self_ms_per_req", "ms"},
		{"core.step_p50_us.read", "us"},
		{"core.step_p50_us.write", "us"},
		{"core.step_p50_us.lock", "us"},
		{"core.step_p50_us.call", "us"},
		{"core.txn_commit_ratio", "ratio"},
		{"core.ic_pass_ms", "ms"},
		{"core.gc_pass_ms", "ms"},
		{"core.gc_rows_deleted_per_req", "count"},
		{"storage.ms_per_req", "ms"},
	}
	for _, k := range dataOps {
		ms = append(ms, metric{"storage.op_p50_us." + opNames[k], "us"})
	}
	for _, k := range dataOps {
		ms = append(ms, metric{"dynamo.ops_per_req." + opNames[k], "count"})
	}
	return append(ms, []metric{
		{"dynamo.items_scanned_per_req", "count"},
		{"dynamo.bytes_read_per_req", "B"},
		{"dynamo.bytes_written_per_req", "B"},
		{"dynamo.cond_failures_per_req", "count"},
		{"walstore.fsyncs_per_req", "count"},
		{"walstore.records_per_fsync", "records"},
		{"walstore.bytes_per_req", "B"},
		{"walstore.fsync_p50_us", "us"},
		{"walstore.snapshots", "count"},
		{"pipeline.rows_per_flush", "rows"},
		{"pipeline.flushes_per_req", "count"},
		{"pipeline.fence_waits_per_req", "count"},
		{"pipeline.flush_p50_us", "us"},
		{"pipeline.fence_ms_per_req", "ms"},
		{"remote.rpcs_per_req", "count"},
		{"remote.bytes_per_req", "B"},
		{"remote.rpc_p50_us", "us"},
		{"remote.rpc_p99_us", "us"},
		{"remote.server_ms_per_req", "ms"},
		{"remote.wire_ms_per_req", "ms"},
		{"go.gc_cpu_ms_per_req", "ms"},
		{"go.gc_cycles", "count"},
		{"trace.unaccounted_ms_per_req", "ms"},
		{"trace.traced_rps", "1/s"},
		{"trace.untraced_rps", "1/s"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length: no round starts that would end past this many seconds (at least three run: a warm-up round and two measured)")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for temp stores and trace files")
	steady := flag.Int("steady", 0, "steadiness mode: run two interleaved sets of this many runs each")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*name, *seed, *seconds, *steady, *out); err != nil {
			fmt.Fprintln(os.Stderr, "beldibench:", err)
			os.Exit(1)
		}
		return
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "beldibench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "beldibench:", err)
		os.Exit(1)
	}
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		r, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "beldibench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "beldibench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// minRounds is the fewest rounds a run makes: the warm-up round and two
// measured ones (a traced run needs a traced and an untraced one).
const minRounds = 3

// run repeats rounds of w until d has passed and reports the median over
// measured rounds of every metric. Round 0 warms the process up (its heap
// pages, code and caches): it runs and is checked like any other, but
// measures nothing. A traced run alternates traced and untraced rounds
// after it.
func run(w workload, seed int64, d time.Duration, traced bool, out string) (result, error) {
	start := time.Now()
	var rounds []*roundResult
	var dump *traceDump
	for i := 0; ; i++ {
		// A round is the run's last when another as long would end past
		// d; it then also runs the once-per-run checks.
		roundStart := time.Now()
		final := false
		r, err := runRound(w, seed, i, out, traced && i%2 == 1, func() bool {
			final = i+1 >= minRounds && time.Since(start)+time.Since(roundStart) >= d
			return final
		})
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		if r.spans != nil {
			dump = r.spans
		}
		if final {
			break
		}
	}
	res := result{Correct: true, Metrics: map[string]value{}}
	var samples, updates int
	untraced := map[string][]float64{}
	tracedOnly := map[string][]float64{}
	for i, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Correct = res.Correct && r.checkErr == nil
		if i == 0 {
			continue
		}
		into := untraced
		if r.traced {
			into = tracedOnly
		} else {
			samples += len(r.lat.all)
			updates += len(r.lat.upds)
		}
		for k, v := range r.m {
			into[k] = append(into[k], v)
		}
	}
	// Each metric is the median over untraced rounds; the metrics only a
	// traced round measures come from the traced rounds.
	agg := map[string]float64{}
	for k, vs := range tracedOnly {
		agg[k] = median(vs)
	}
	for k, vs := range untraced {
		agg[k] = median(vs)
	}
	// The end-to-end time metrics come from the best untraced round
	// instead. Other tenants of a shared host only ever slow a round down,
	// by up to half within one run on travel-remote-spec, so the best
	// round is the closest reading of the program's own cost; the median
	// followed the host and spread twice as far between runs.
	for _, k := range []string{"req_p50_ms", "update_p50_ms", "cpu_ms_per_req"} {
		agg[k] = quantile(untraced[k], 0)
	}
	agg["throughput_rps"] = quantile(untraced["throughput_rps"], 1)
	list := endToEnd
	if traced {
		list = perLayer
		agg["trace.traced_rps"] = median(tracedOnly["throughput_rps"])
		agg["trace.untraced_rps"] = median(untraced["throughput_rps"])
		agg["trace.overhead_pct"] = 100 * (1 - agg["trace.traced_rps"]/agg["trace.untraced_rps"])
		if dump != nil {
			path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.jsonl.gz", w.name, seed))
			if err := dump.write(path); err != nil {
				return result{}, fmt.Errorf("write trace: %w", err)
			}
			fmt.Printf("%s: spans of the last traced round written to %s\n", w.name, path)
		}
	}
	fmt.Printf("%s: rounds %d (1 warm-up), attempted %d, failed %d, untraced latency samples %d (updates %d)\n",
		w.name, len(rounds), res.Attempted, res.Failed, samples, updates)
	for _, m := range list {
		v, ok := agg[m.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
		fmt.Printf("%s %-34s %14.4f %s\n", w.name, m.name, v, m.unit)
	}
	return res, nil
}
