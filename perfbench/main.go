// Command perfbench is arbloop's block-to-byte benchmark. It rebuilds the
// `arbloop serve` pipeline in-process on the chain simulator, drives it
// with an open-loop block generator (and an open-loop report reader),
// times every sealed block from its due time to the SSE client's read of
// the first report that covers it, checks the served outputs against
// fresh full scans, and prints the metrics as one JSON line.
//
// Run it from the repository root through the wrapper, which builds the
// harness first:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare BASE_DIR NEW_DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs a window whose
// block segments alternate traced and untraced, and reports the
// per-layer metrics (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"arbloop"
)

// workload is one named input set: the loop set and strategy the scanner
// runs, the block cadence and retail flow the generator applies, the
// oplog setting, and the open-loop report read rate.
type workload struct {
	name     string
	loopLen  int
	strategy string
	swaps    int
	interval time.Duration
	oplog    bool
	readRate int
}

// probeReadRate is the report read rate of the workloads that are not
// about reads: light enough to leave their per-block costs alone, with
// enough reads in a run for the read percentiles.
const probeReadRate = 100

var workloads = []workload{
	{name: "steady", loopLen: 3, strategy: arbloop.StrategyMaxMax, swaps: 4,
		interval: 5 * time.Millisecond, oplog: true, readRate: probeReadRate},
	{name: "convex-len4", loopLen: 4, strategy: arbloop.StrategyConvex, swaps: 10,
		interval: 40 * time.Millisecond, oplog: false, readRate: probeReadRate},
	{name: "read-mix", loopLen: 3, strategy: arbloop.StrategyMaxMax, swaps: 4,
		interval: 5 * time.Millisecond, oplog: true, readRate: 5000},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric. The names, units and directions
// match BENCHMARK.json (checked by TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"block_to_byte_p50_ms", "ms"},
	{"block_to_byte_p90_ms", "ms"},
	{"cpu_ms_per_block", "ms"},
	{"peak_rss_mb", "MB"},
	{"report_read_p50_us", "us"},
}

var perLayerMetrics = []metricDef{
	{"gen.lateness_p50_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.read_lateness_p99_ms", "ms"},
	{"source.pools_us_p50", "us"},
	{"source.prices_us_p50", "us"},
	{"feed.wake_us_p50", "us"},
	{"feed.refresh_self_us_p50", "us"},
	{"feed.coalesced_ratio", "ratio"},
	{"scan.wait_us_p50", "us"},
	{"scan.run_us_p50", "us"},
	{"scan.run_us_p99", "us"},
	{"scan.stage_orient_us_mean", "us"},
	{"scan.stage_prices_us_mean", "us"},
	{"scan.stage_optimize_us_mean", "us"},
	{"scan.stage_commit_us_mean", "us"},
	{"scan.loops_reoptimized_per_block", "loops/block"},
	{"scan.reuse_ratio", "ratio"},
	{"scan.shards_scanned_per_block", "shards/block"},
	{"scan.full_captures", "count"},
	{"strategy.convex_solves_per_block", "solves/block"},
	{"strategy.convex_fallback_ratio", "ratio"},
	{"strategy.convex_warm_hit_ratio", "ratio"},
	{"strategy.convex_newton_iters_per_solve", "iters/solve"},
	{"distrib.encode_us_p50", "us"},
	{"distrib.frame_bytes", "B"},
	{"distrib.gzip_bytes", "B"},
	{"server.publish_us_p50", "us"},
	{"server.publish_us_p99", "us"},
	{"server.sse_transit_us_p50", "us"},
	{"server.read_p99_us", "us"},
	{"oplog.append_us_p50", "us"},
	{"oplog.write_us_p50", "us"},
	{"oplog.sync_ms_p50", "ms"},
	{"oplog.bytes_per_block", "B/block"},
	{"oplog.dropped", "count"},
	{"runtime.alloc_kb_per_block", "kB/block"},
	{"runtime.gc_per_1k_blocks", "gc/1k_blocks"},
	{"trace.unattributed_us_p50", "us"},
	{"trace.overhead_pct", "%"},
}

// metricValue and result are the wire shape of the final output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is printed before the result line so saved outputs carry the
// workload, seed and host shape compare mode needs.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    int       `json:"trace"`
	Host     hostShape `json:"host"`
}

// runPrefix marks the run-record line in a saved output.
const runPrefix = "# run "

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := cmdCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := cmdRun(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir holds everything a run leaves behind: oplog segments while a
// run is live and the span dumps of traced runs. It is relative to the
// working directory, the repository root.
const buildDir = ".bench_build"

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady | convex-len4 | read-mix")
	seed := fs.Int64("seed", 1, "workload seed (retail swaps, read mix, verification sample)")
	seconds := fs.Int("seconds", 20, "timed window length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "span dump of a traced run (default "+buildDir+"/traces/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want steady, convex-len4 or read-mix)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
	}
	rec := runRecord{Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: probeHost()}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", runPrefix, line)

	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds}
	var res result
	if *trace == 0 {
		res, err = runEndToEnd(cfg)
	} else {
		res, err = runTraced(cfg, *traceOut)
	}
	if err != nil {
		return err
	}
	return printResult(out, res)
}

// printResult writes a readable metric table and then the JSON result
// as the last line.
func printResult(out io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "# %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// setMetrics fills res.Metrics from values keyed by metric name; every
// defined metric must be present.
func setMetrics(res *result, defs []metricDef, values map[string]float64) error {
	res.Metrics = make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not computed: %s", strings.Join(missing, ", "))
	}
	return nil
}
